"""Run one affsurf command with the layer tracer installed.

    python3 perfbench/bench_cli.py --spans FILE --sums FILE --job ID -- solve --k 2 --out DIR

The traced cli-default run starts each command through this script instead
of ``python -m affsurf``. The command's spans are written to ``--spans`` and
their sums (see ``bench_trace.summarize``) to ``--sums`` when it ends; the
exit code is the command's own.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import json
from pathlib import Path

from bench_trace import Tracer, summarize


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--sums", type=Path, required=True)
    parser.add_argument("--job", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import affsurf.cli

    tracer = Tracer(job=args.job)
    with tracer.installed():
        tracer.active = True
        try:
            code = affsurf.cli.main(command)
        finally:
            tracer.active = False
            with args.spans.open("w") as fh:
                fh.writelines(tracer.tsv_lines())
            args.sums.write_text(json.dumps(summarize(tracer.spans)))
    return code


if __name__ == "__main__":
    sys.exit(main())
