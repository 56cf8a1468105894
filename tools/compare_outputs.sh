#!/usr/bin/env bash
# Compare the rerun outputs of a revision with those of the working tree.
#
#   tools/compare_outputs.sh REV OUTDIR
#
# Exports REV's files (git archive) into OUTDIR/tree, runs each tree's own
# tools/rerun_outputs.sh into OUTDIR/rev and OUTDIR/work, and prints
# `diff -rq` of the two. For each point file that differs it then prints
# both point counts and the largest move of a point, the largest distance
# between the two files' points of the same index (where the counts
# agree); point files are read with the working tree's
# affsurf.read_points. Last comes one line, `N files compared, M differ`,
# over the files that both trees write. The exported tree is removed on
# exit; the outputs stay for a closer look. Exits 0 when the outputs
# agree, 1 when they differ, and with the failing script's status when a
# rerun fails.
set -eu
rev=${1:?usage: tools/compare_outputs.sh REV OUTDIR}
out=${2:?usage: tools/compare_outputs.sh REV OUTDIR}
repo="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
tree="$out/tree"

rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git -C "$repo" archive "$rev" | tar -x -C "$tree"

"$tree/tools/rerun_outputs.sh" "$out/rev" >"$out/rev.log" 2>&1
"$repo/tools/rerun_outputs.sh" "$out/work" >"$out/work.log" 2>&1
status=0
diff -rq "$out/rev" "$out/work" || status=$?
python3 - "$repo/src" "$out/rev" "$out/work" <<'EOF'
import sys
from pathlib import Path

src, rev, work = sys.argv[1:]
sys.path.insert(0, src)
from affsurf import read_points  # noqa: E402

rev, work = Path(rev), Path(work)


def points(path):
    try:
        return read_points(path).points
    except ValueError:
        return None


compared = differ = 0
for a in sorted(p for p in rev.rglob("*") if p.is_file()):
    b = work / a.relative_to(rev)
    if not b.is_file():
        continue
    compared += 1
    if a.read_bytes() == b.read_bytes():
        continue
    differ += 1
    pa, pb = points(a), points(b)
    if pa is None or pb is None:
        continue
    move = f"{abs(pa - pb).max():.3g}" if len(pa) == len(pb) else "n/a"
    print(f"{a.relative_to(rev)}: points {len(pa)} -> {len(pb)}, largest move {move}")
print(f"{compared} files compared, {differ} differ")
EOF
exit "$status"
