#!/usr/bin/env bash
# Compare the rerun outputs of a revision with those of the working tree.
#
#   tools/compare_outputs.sh REV OUTDIR
#
# Checks REV out into a temporary git worktree under OUTDIR, runs each
# tree's own tools/rerun_outputs.sh into OUTDIR/rev and OUTDIR/work, and
# prints `diff -rq` of the two. The worktree is removed on exit; the
# outputs stay for a closer look. Exits 0 when the outputs agree, 1 when
# they differ, and with the failing script's status when a rerun fails.
set -eu
rev=${1:?usage: tools/compare_outputs.sh REV OUTDIR}
out=${2:?usage: tools/compare_outputs.sh REV OUTDIR}
repo="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
tree="$out/tree"

git -C "$repo" worktree add --quiet --detach "$tree" "$rev"
trap 'git -C "$repo" worktree remove --force "$tree"' EXIT

"$tree/tools/rerun_outputs.sh" "$out/rev" >"$out/rev.log" 2>&1
"$repo/tools/rerun_outputs.sh" "$out/work" >"$out/work.log" 2>&1
diff -rq "$out/rev" "$out/work"
