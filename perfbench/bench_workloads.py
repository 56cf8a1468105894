"""The benchmark's workloads: seeded inputs, the jobs, and their output checks.

A workload produces batches. Batch ``index`` of seed ``seed`` is a pure
function of both, so a run, a traced run and the determinism check all see
the same inputs for the same seed. Each batch has an untimed set-up
(``prepare``) and a list of jobs; a job is one call that waits for its
result, followed by an untimed check of that result. Jobs look the program's
functions up on its modules at call time, so the tracer's rebinding applies.

Why these three workloads:

- solve-cold is the solver and quadrature path alone: cold
  ``solve_prevertex`` calls whose cost grows with log K, each repeating the
  continuation from K = 1.
- boundary-trace is the tracker path: few panels per segment, many
  single-point derivative calls, slit crossings and spirals; the solver
  runs only in its set-up.
- cli-default is the six subcommands as separate processes at default
  settings, the only workload paying imports, reports and file output.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np
from affsurf import develop, limitset, solver

DECADES = tuple(10.0**j for j in range(1, 9))

# a solve is accepted when an independent residual, integrated more tightly
# than the solver's own quad_tol = 1e-12, stays below this
RESIDUAL_CHECK_QUAD_TOL = 1e-13
RESIDUAL_CHECK_MAX = 1e-8
SYMMETRY_MAX = 1e-6

# (x0, tau) from the direct solve of the two limit conditions; the tolerance
# also admits the default sweep's Richardson fit (1.9132015196, 0.3470332389),
# which differs by 1.5e-4 and 1.2e-4
LIMIT_DIRECT = (1.913348079505, 0.347148385025)
LIMIT_TOL = 2e-4


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], List[str]]
    kind: str = ""  # the subcommand, for cli-default


@dataclass
class Context:
    """What jobs need from the run: where to write and how to start processes."""

    root: Path
    work: Path
    env: Dict[str, str]
    trace_dir: Optional[Path] = None
    job_id: str = ""


def _rng(tag: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, index])


def _log_uniform(rng: np.random.Generator, bands) -> List[float]:
    """One aspect per band, log-uniform inside it.

    The draws are stratified: the positions inside the bands are evenly
    spaced from one random start and handed to the bands in random order.
    Each aspect is still log-uniform in its band, but a batch's total cost,
    which grows with the positions, varies about half as much between seeds.
    """
    n = len(bands)
    positions = rng.permutation((rng.uniform() + np.arange(n) / n) % 1.0)
    return [
        float(math.exp(math.log(lo) + p * (math.log(hi) - math.log(lo))))
        for (lo, hi), p in zip(bands, positions)
    ]


class Workload:
    """Defaults: jobs run in this process, no set-up, no check across jobs."""

    in_children = False

    def prepare(self, inputs, ctx: Context, state: dict) -> None:
        pass

    @staticmethod
    def check_batch(inputs, outputs) -> Dict[int, List[str]]:
        """Problems found across the batch's outputs, by job index."""
        return {}


# ------------------------------------------------------------- solve-cold


class SolveCold(Workload):
    name = "solve-cold"
    must_reach = ("quadrature", "solver")
    # one aspect per decade band of [1.5, 1e6]
    bands = ((1.5, 10.0), (10.0, 1e2), (1e2, 1e3), (1e3, 1e4), (1e4, 1e5), (1e5, 1e6))

    def inputs(self, seed: int, index: int) -> List[float]:
        return sorted(_log_uniform(_rng(1, seed, index), self.bands))

    def jobs(self, inputs, ctx: Context, state: dict) -> List[Job]:
        jobs = []
        for K in inputs:
            jobs.append(Job(
                f"solve_prevertex K={K:.6g}",
                lambda K=K: solver.solve_prevertex(K),
                lambda res, K=K: self._check(K, res),
            ))
        return jobs

    @staticmethod
    def _check(K: float, res) -> List[str]:
        z1 = res.prevertex
        problems = []
        if not res.converged:
            problems.append("not converged")
        if not (z1.real > 0 and z1.imag > 0):
            problems.append(f"z1 = {z1} outside the open first quadrant")
            return problems
        r = abs(solver.corner_residual(K, z1, quad_tol=RESIDUAL_CHECK_QUAD_TOL))
        if not r <= RESIDUAL_CHECK_MAX:
            problems.append(f"independent residual {r:.3g} > {RESIDUAL_CHECK_MAX:g}")
        return problems

    @staticmethod
    def check_batch(inputs, outputs) -> Dict[int, List[str]]:
        """Re z1 increases and Im z1 decreases with K; flags the later job of a bad pair."""
        bad: Dict[int, List[str]] = {}
        for i in range(1, len(inputs)):
            a, b = outputs[i - 1], outputs[i]
            if a is None or b is None:
                continue
            za, zb = a.prevertex, b.prevertex
            if not (zb.real > za.real and zb.imag < za.imag):
                bad[i] = [f"z1 not monotone: K={inputs[i - 1]:.6g} -> {za}, K={inputs[i]:.6g} -> {zb}"]
        return bad


# --------------------------------------------------------- boundary-trace


class BoundaryTrace(Workload):
    name = "boundary-trace"
    must_reach = ("quadrature", "tracking")
    # two aspects per decade band of [1e2, 1e6], so the jobs outweigh the
    # batch's set-up sweep; the top band keeps the largest aspect's distance
    # under the acceptance bar
    bands = tuple(band for band in ((1e2, 1e3), (1e3, 1e4), (1e4, 1e5), (1e5, 1e6)) for _ in range(2))

    def inputs(self, seed: int, index: int) -> List[float]:
        return sorted(_log_uniform(_rng(2, seed, index), self.bands))

    def prepare(self, inputs, ctx: Context, state: dict) -> None:
        sols = solver.continuation_sweep(sorted(set(inputs) | set(DECADES)))
        state["z1"] = {s.K: s.prevertex for s in sols}
        state["limit"] = solver.extract_limit(sols)

    def jobs(self, inputs, ctx: Context, state: dict) -> List[Job]:
        def cloud():
            est = state["limit"]
            state["cloud"] = limitset.limit_image_cloud(est.x0, est.tau)
            return state["cloud"]

        def boundary(K):
            dev = develop.DevelopingMap.from_aspect(K, state["z1"][K])
            pts = limitset.rectangle_image_boundary(dev).points
            return pts, limitset.hausdorff_distance(pts, state["cloud"].points)

        jobs = [Job("limit_image_cloud", cloud, self._check_cloud)]
        for K in inputs:
            jobs.append(Job(
                f"rectangle_image_boundary K={K:.6g}",
                lambda K=K: boundary(K),
                lambda out, K=K: self._check_boundary(out, K == max(inputs)),
            ))
        return jobs

    @staticmethod
    def _check_cloud(cloud) -> List[str]:
        return [
            f"{piece}: {note}" for piece, note in sorted(cloud.notes.items())
            if note.startswith(("unreached:", "partial:"))
        ]

    @staticmethod
    def _check_boundary(out, largest: bool) -> List[str]:
        pts, distance = out
        problems = []
        for label, image in (("conj", np.conj(pts)), ("-conj", -np.conj(pts))):
            d = limitset.hausdorff_distance(pts, image)
            if not d < SYMMETRY_MAX:
                problems.append(f"{label} symmetry distance {d:.3g} >= {SYMMETRY_MAX:g}")
        if largest and not distance < limitset.HAUSDORFF_ACCEPT:
            problems.append(f"distance to the limit {distance:.4g} >= {limitset.HAUSDORFF_ACCEPT}")
        return problems


# ------------------------------------------------------------ cli-default


class CliDefault(Workload):
    name = "cli-default"
    in_children = True  # each job is a command process
    must_reach = ("quadrature", "cli")
    # aspects around the README's `solve --k 2,5,1000` and `render --k 2`
    solve_bands = ((1.5, 3.0), (3.0, 10.0), (300.0, 3000.0))
    render_band = ((1.5, 3.0),)

    def inputs(self, seed: int, index: int) -> List[List[str]]:
        rng = _rng(3, seed, index)
        solve_k = ",".join(repr(k) for k in sorted(_log_uniform(rng, self.solve_bands)))
        render_k = repr(_log_uniform(rng, self.render_band)[0])
        return [
            ["solve", "--k", solve_k],
            ["sweep"],
            ["render", "--k", render_k, "--k", "inf"],
            ["limit"],
            ["hausdorff"],
            ["verify", "--seed", str(seed)],
        ]

    def jobs(self, inputs, ctx: Context, state: dict) -> List[Job]:
        return [
            Job(" ".join(argv), lambda argv=argv: self._run(argv, ctx), self._check_for(argv[0]), argv[0])
            for argv in inputs
        ]

    @staticmethod
    def _run(argv: Sequence[str], ctx: Context):
        out = Path(tempfile.mkdtemp(prefix=argv[0] + "-", dir=ctx.work))
        command = [*argv, "--out", str(out)]
        if ctx.trace_dir is None:
            cmd = [sys.executable, "-m", "affsurf", *command]
        else:
            job = ctx.job_id
            cmd = [
                sys.executable, str(Path(__file__).with_name("bench_cli.py")),
                "--spans", str(ctx.trace_dir / f"{job}.tsv"),
                "--sums", str(ctx.trace_dir / f"{job}.json"), "--job", job, "--", *command,
            ]
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True, text=True)
        report_path = out / "report.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        shutil.rmtree(out)
        return proc.returncode, report, proc.stderr[-2000:]

    @staticmethod
    def _check_for(command: str):
        def check(out) -> List[str]:
            code, report, stderr = out
            problems = []
            if code != 0:
                problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
            if report is None:
                return problems + ["no report.json"]
            if report.get("status") != "pass":
                problems.append(f"report status {report.get('status')!r}")
            results = report.get("results", {})
            if command == "hausdorff" and results.get("verdict") != "pass":
                problems.append(f"hausdorff verdict {results.get('verdict')!r}")
            if command == "sweep":
                for key, value, ref in zip(("x0", "tau"), (results.get("x0"), results.get("tau")), LIMIT_DIRECT):
                    if not (isinstance(value, float) and abs(value - ref) <= LIMIT_TOL):
                        problems.append(f"{key} = {value!r} not within {LIMIT_TOL:g} of {ref}")
            return problems

        return check


WORKLOADS = {w.name: w for w in (SolveCold(), BoundaryTrace(), CliDefault())}
