"""affsurf benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is ``src/affsurf`` of the checkout
that holds this directory, used from source.

``--trace 0`` runs batches of jobs in a closed loop (one job at a time, each
waiting for its result) until ``--seconds`` of wall time is spent, always at
least one batch, and reports the end-to-end metrics:

- ``wall_s``: time to solution of one batch, the sum of its job times,
  median over the run's batches. Every output is checked, outside the timing.
- ``job_s.p50``: median job time over all jobs of the run.
- ``job_s.tail``: the slowest job with ten jobs beyond it when the run has at
  least 20 jobs, else the nearest-rank 90th percentile; the percentile and
  count are printed.
- ``setup_s``: median interpreter start plus ``import affsurf`` (three fresh
  processes) plus the median untimed set-up of the run's batches.
- ``peak_rss_mb``: peak resident memory of the process doing the work (this
  one, or the largest command process for cli-default).

Times of jobs run in this process are scaled to the reference host speed
(see ``bench_clock`` and ``_scale``); the raw wall times are printed beside
them. Failed jobs (raised, exited non-zero, or
failed their check) are counted in ``attempted``/``failed`` of the result
line; ``failed_ratio`` is printed.

``--trace 1`` runs the seed's first batch twice on the same inputs, first
with the layer tracer of ``bench_trace`` installed and then without it,
reports the per-layer metrics of the traced batch, and states the tracing
overhead as traced minus untraced batch time. Spans go to
``perfbench/out/spans-<workload>-<seed>.tsv`` when the run ends.

The BLAS thread pool is pinned to one thread, at most one command process
runs beside this one, bytecode is never written, and every temporary file
lives under ``perfbench/.work/`` and is removed before exit. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

# before numpy loads, here and in every process started from here
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from bench_clock import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STARTUP_SAMPLES = 3
MIN_JOBS_FOR_PERCENTILE = 20


@dataclass
class Batch:
    prep_s: float
    times: List[float] = field(default_factory=list)
    problems: List[List[str]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _metrics(kind: str) -> list:
    """(name, unit) of BENCHMARK.json's metrics of one kind, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _startup_s(env: dict, probe: SpeedProbe) -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import affsurf"], cwd=ROOT, env=env, check=True)
    elapsed = time.perf_counter() - t
    probe.sample(elapsed)
    return elapsed


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_batch(workload, inputs, ctx, label: str, tracer=None, state=None, probe=None) -> Batch:
    """Set up (unless state is given), then run and check every job in order.

    With a probe, the host speed is sampled after the set-up and each job.
    """
    if state is None:
        state = {}
        t = time.perf_counter()
        try:
            workload.prepare(inputs, ctx, state)
        except Exception:  # the jobs then fail for lack of state and are counted
            traceback.print_exc(file=sys.stderr)
        prep = time.perf_counter() - t
        if probe is not None:
            probe.sample(prep)
    else:
        prep = 0.0
    batch = Batch(prep)
    outputs = []
    jobs = workload.jobs(inputs, ctx, state)
    for i, job in enumerate(jobs):
        ctx.job_id = f"{label}j{i}"
        out, problems = None, []
        rec = None
        if tracer is not None:
            tracer.job = ctx.job_id
            rec = tracer.open("bench.job")
            tracer.active = True
        t = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:
            problems.append(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - t
            if tracer is not None:
                tracer.active = False
                tracer.close(rec)
        if out is not None:
            try:
                problems.extend(job.check(out))
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        batch.times.append(elapsed)
        batch.problems.append(problems)
        outputs.append(out)
        if probe is not None:
            probe.sample(elapsed)
    for i, extra in workload.check_batch(inputs, outputs).items():
        batch.problems[i].extend(extra)
    for job, problems in zip(jobs, batch.problems):
        for p in problems:
            print(f"FAILED {job.name}: {p}", file=sys.stderr)
    return batch


def _scale(workload, probe: SpeedProbe) -> float:
    """Factor for the run's times: the host speed scale for jobs run in this process.

    The calibration slice runs in this process and tracks the speed of work
    done here. Command processes also start an interpreter and import
    numpy, scipy and affsurf, which the slice does not resemble; in three
    sets of ten cli-default runs on the reference machine the scaled times
    spread wider and their medians drifted up to 19% between sets, against
    3% for the raw times. Their times are therefore left as measured.
    """
    return 1.0 if workload.in_children else probe.scale


def _tail(times: List[float]):
    """(value, percentile) of the slowest job with ten jobs beyond it.

    Below 20 jobs that job would sit under the median, so the nearest-rank
    90th percentile stands in.
    """
    n = len(times)
    rank = n - 10 if n >= MIN_JOBS_FOR_PERCENTILE else math.ceil(0.9 * n)
    return sorted(times)[rank - 1], 100.0 * rank / n


def _timed(workload, args, ctx):
    probe = SpeedProbe()
    startup = [_startup_s(ctx.env, probe) for _ in range(STARTUP_SAMPLES)]
    batches: List[Batch] = []
    start = time.perf_counter()
    while True:
        index = len(batches)
        inputs = workload.inputs(args.seed, index)
        batches.append(run_batch(workload, inputs, ctx, f"b{index}", probe=probe))
        elapsed = time.perf_counter() - start
        # start another batch only if one more of average length still fits
        if elapsed * (index + 2) / (index + 1) > args.seconds:
            break
    times = [t for b in batches for t in b.times]
    tail, pct = _tail(times)
    raw = {
        "wall_s": statistics.median(sum(b.times) for b in batches),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "setup_s": statistics.median(startup) + statistics.median(b.prep_s for b in batches),
    }
    scale = _scale(workload, probe)
    values = {name: value * scale for name, value in raw.items()}
    values["peak_rss_mb"] = _peak_rss_mb(workload.in_children)
    attempted, failed = len(times), sum(b.failed for b in batches)
    notes = {
        "wall_s": f"median over {len(batches)} batches of {len(batches[0].times)} jobs",
        "job_s.p50": f"median of {attempted} jobs",
        "job_s.tail": f"p{pct:.0f} of {attempted} jobs"
        + ("" if attempted >= MIN_JOBS_FOR_PERCENTILE else " (fewer than 20 jobs: nearest-rank p90)"),
        "setup_s": "startup {:.3f} s (median of {}) + set-up {:.3f} s (median of {}), raw".format(
            statistics.median(startup), len(startup),
            statistics.median(b.prep_s for b in batches), len(batches)),
        "peak_rss_mb": "largest command process" if workload.in_children else "this process",
    }
    print(f"{workload.name} seed {args.seed}: {len(batches)} batches, {attempted} jobs, "
          f"{failed} failed, {time.perf_counter() - start:.1f} s measured; host speed scale "
          f"{probe.scale:.3f} from {len(probe.samples)} calibration slices, applied {scale:.3f}")
    print(f"  {'metric':<12} {'value':>12} {'unit':<3} {'raw':>9}")
    for name, unit in _metrics("end_to_end"):
        shown = f"{raw[name]:9.4g}" if name in raw else " " * 9
        print(f"  {name:<12} {values[name]:>12.6g} {unit:<3} {shown} {notes[name]}")
    print(f"  {'failed_ratio':<12} {failed / attempted:>12.6g}     {'':9} {failed}/{attempted} jobs")
    return values, attempted, failed


def _merge_cli_spans(tracer, trace_dir: Path, spans_out: Path) -> dict:
    """Sums of the command processes, and one span file with their spans under the job spans."""
    from bench_trace import SPAN_HEADER, add_sums

    sums: dict = {}
    jobs = {rec[4]: i for i, rec in enumerate(tracer.spans) if rec[0] == "bench.job"}
    with spans_out.open("w") as fh:
        fh.write(SPAN_HEADER)
        fh.writelines(tracer.tsv_lines())
        offset = len(tracer.spans)
        for job, root in jobs.items():
            sums_path, tsv_path = trace_dir / f"{job}.json", trace_dir / f"{job}.tsv"
            if not sums_path.exists():
                continue  # the command failed before writing; the job is already counted failed
            sums = add_sums(sums, json.loads(sums_path.read_text()))
            count = 0
            for line in tsv_path.read_text().splitlines():
                index, rest = line.split("\t", 1)
                job_id, name, t0, t1, parent, tail = rest.split("\t", 5)
                parent = int(parent) + offset if int(parent) >= 0 else root
                fh.write(f"{int(index) + offset}\t{job_id}\t{name}\t{t0}\t{t1}\t{parent}\t{tail}\n")
                count += 1
            offset += count
    return sums


def _traced(workload, args, ctx):
    from bench_trace import LAYERS, SPAN_HEADER, Tracer, layer_metrics, require_layers, summarize

    inputs = workload.inputs(args.seed, 0)
    state: dict = {}
    workload.prepare(inputs, ctx, state)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / f"spans-{workload.name}-{args.seed}.tsv"
    tracer = Tracer()
    probe = SpeedProbe()
    if workload.in_children:
        ctx.trace_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=ctx.work))
        traced = run_batch(workload, inputs, ctx, "traced-", tracer, state, probe)
        sums = _merge_cli_spans(tracer, ctx.trace_dir, spans_out)
        ctx.trace_dir = None
    else:
        with tracer.installed():
            traced = run_batch(workload, inputs, ctx, "traced-", tracer, state, probe)
        sums = summarize(tracer.spans)
        with spans_out.open("w") as fh:
            fh.write(SPAN_HEADER)
            fh.writelines(tracer.tsv_lines())
    require_layers(sums, workload.must_reach)
    plain = run_batch(workload, inputs, ctx, "plain-", None, state, probe)

    command_s = {}
    if workload.in_children:
        for job, elapsed in zip(workload.jobs(inputs, ctx, state), plain.times):
            command_s[job.kind] = elapsed
    traced_wall, plain_wall = sum(traced.times), sum(plain.times)
    scale = _scale(workload, probe)
    values = layer_metrics(sums, command_s, traced_wall, plain_wall, scale)
    attempted = len(traced.times) + len(plain.times)
    failed = traced.failed + plain.failed

    print(f"{workload.name} seed {args.seed}: traced batch of {len(traced.times)} jobs "
          f"{traced_wall:.3f} s, untraced {plain_wall:.3f} s, overhead "
          f"{traced_wall - plain_wall:+.3f} s ({(traced_wall / plain_wall - 1) * 100:+.1f}%), "
          f"{failed} of {attempted} jobs failed; spans in {spans_out.relative_to(ROOT)}")
    print("  layer self times, raw:")
    covered = sum(sums[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        share = sums[f"{layer}.self_s"] / traced_wall if traced_wall else 0.0
        print(f"  {layer:<10} self {sums[f'{layer}.self_s']:9.3f} s  {share * 100:5.1f}% of traced wall  "
              f"{int(sums[f'{layer}.spans'])} spans")
    print(f"  {'other':<10} self {traced_wall - covered:9.3f} s  (benchmark glue, interpreter start, unwrapped code)")
    print(f"  metrics, times scaled by {scale:.3f} (host speed scale {probe.scale:.3f}):")
    for name, unit in _metrics("per_layer"):
        print(f"  {name:<30} {values[name]:>14.6g} {unit}")
    return values, attempted, failed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "affsurf" / "__init__.py").is_file():
        print(f"error: no affsurf sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_trace import TraceError
    from bench_workloads import WORKLOADS, Context

    import affsurf

    if Path(affsurf.__file__).resolve().parent != SRC / "affsurf":
        print(f"error: imported affsurf from {affsurf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    env = _child_env()
    try:
        ctx = Context(root=ROOT, work=work, env=env)
        run = _traced if args.trace else _timed
        values, attempted, failed = run(workload, args, ctx)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it
    print(f"environment: BLAS threads pinned to 1 ({', '.join(THREAD_PINS)}); at most one command "
          f"process beside this one, nproc {os.cpu_count()}; Python {sys.version.split()[0]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in _metrics("per_layer" if args.trace else "end_to_end")
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
