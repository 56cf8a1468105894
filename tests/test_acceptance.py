"""The ten release gates, one test per criterion.

Each test prints a single PASS/FAIL line naming the criterion, so a -v
run shows the full ledger either through the test names or through the
printed lines. Failures collect every violated clause into that line
instead of stopping at the first assert.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from affsurf import checks
from affsurf.limitset import convergence_report, limit_image_cloud, rectangle_image_boundary
from affsurf.solver import continuation_sweep, extract_limit, solve_prevertex

DECADES = tuple(10.0**j for j in range(1, 9))
TIMINGS: dict = {}


def _criterion(number: int, name: str, problems: list) -> None:
    verdict = "PASS" if not problems else "FAIL"
    line = f"{verdict} criterion {number:02d} {name}"
    if problems:
        line += " :: " + "; ".join(problems)
    print(line)
    assert not problems, line


@pytest.fixture(scope="module")
def sweep8():
    t0 = time.perf_counter()
    sols = continuation_sweep(DECADES)
    TIMINGS["sweep"] = time.perf_counter() - t0
    return sols


@pytest.fixture(scope="module")
def limit_fit(sweep8):
    return extract_limit(sweep8)


@pytest.fixture(scope="module")
def cold_solutions():
    t0 = time.perf_counter()
    sols = {K: solve_prevertex(K) for K in (2.0, 5.0, 1000.0)}
    TIMINGS["cold"] = time.perf_counter() - t0
    return sols


@pytest.fixture(scope="module")
def warm_solutions():
    t0 = time.perf_counter()
    # each aspect starts from the solved member at its square root
    sols = {
        K: solve_prevertex(K, initial=solve_prevertex(math.sqrt(K)).prevertex)
        for K in (2.0, 5.0, 1000.0)
    }
    TIMINGS["warm"] = time.perf_counter() - t0
    return sols


@pytest.fixture(scope="module")
def limit_cloud_points(limit_fit):
    return limit_image_cloud(limit_fit.x0, limit_fit.tau).points


def test_criterion_01_square_exactness():
    t0 = time.perf_counter()
    sol = solve_prevertex(1.0)
    pts = rectangle_image_boundary(sol.member, spacing=0.004).points
    problems, _ = checks.square_identity(sol, pts)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _criterion(1, "square member is exact", problems)


def test_criterion_02_solver_success(cold_solutions, warm_solutions):
    problems, _ = checks.solver_residuals(cold_solutions, warm_solutions)
    elapsed = TIMINGS["cold"] + TIMINGS["warm"]
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _criterion(2, "corner condition solved at 2, 5, 1000", problems)


def test_criterion_03_monodromy_cross_check(cold_solutions):
    problems, _ = checks.hole_loop_translation(
        (cold_solutions[2.0], cold_solutions[5.0]), tol=1e-11
    )
    _criterion(3, "loop integrals match hole translations", problems)


def test_criterion_04_holonomy_exactness():
    problems, detail = checks.corner_holonomy((2.0, 5.0, 1000.0))
    # exact fixed points at these aspects, stricter than the shared bound
    if detail["worst_fixed_point_error"] != 0.0:
        problems.append(f"fixed point off by {detail['worst_fixed_point_error']:.2e}")
    _criterion(4, "corner holonomy is the exact similitude", problems)


def test_criterion_05_merge_and_limit_data(sweep8, limit_fit):
    problems, _ = checks.limit_data(sweep8, limit_fit)
    elapsed = TIMINGS["sweep"]
    if elapsed >= 300.0:
        problems.append(f"sweep took {elapsed:.1f}s, budget 300s")
    _criterion(5, "prevertex merge and extrapolated limit data", problems)


def test_criterion_06_connection_convergence(sweep8, limit_fit):
    problems, _ = checks.connection_convergence(sweep8, limit_fit)
    _criterion(6, "connection converges on the segment [-2i, 2i]", problems)


def test_criterion_07_hausdorff_convergence(sweep8, limit_fit):
    t0 = time.perf_counter()
    report = convergence_report([1e2, 1e3, 1e4, 1e5, 1e6], sweep8, limit_fit)
    problems, _ = checks.hausdorff_convergence(report)
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        problems.append(f"took {elapsed:.1f}s, budget 600s")
    _criterion(7, "boundary images converge to the limit configuration", problems)


def test_criterion_08_embedding_contract():
    problems = checks.chart_transitions()[0] + checks.separation_scenarios()[0]
    _criterion(8, "leaf charts stay continuous and separated", problems)


def test_criterion_09_symmetry_suite(cold_solutions, limit_fit, limit_cloud_points):
    clouds = {"limit": limit_cloud_points}
    xs = np.random.default_rng(20260817).uniform(-6.0, 6.0, 128)
    axis = []
    for K, sol in cold_solutions.items():
        clouds[f"k={K:g}"] = rectangle_image_boundary(sol.member, spacing=0.01).points
        axis.append((f"k={K:g}", sol.member, xs))
    axis.append(("limit", limit_fit.member, xs[np.abs(np.abs(xs) - limit_fit.x0) > 0.3]))
    problems, _ = checks.reflection_symmetry(clouds, axis)
    _criterion(9, "reflection symmetries and real axis reality", problems)


def test_criterion_10_determinism(tmp_path):
    problems = []
    out = tmp_path / "gate"
    argv = [
        sys.executable, "-m", "affsurf", "verify",
        "--k", "2", "--density", "60", "--seed", "3", "--out", str(out),
    ]
    first = subprocess.run(argv, capture_output=True, text=True)
    if first.returncode != 0:
        problems.append(f"first run exited {first.returncode}")
    snapshot = (out / "report.json").read_bytes()
    second = subprocess.run(argv, capture_output=True, text=True)
    if second.returncode != 0:
        problems.append(f"second run exited {second.returncode}")
    if (out / "report.json").read_bytes() != snapshot:
        problems.append("reports differ between identical runs")
    if first.stdout != second.stdout:
        problems.append("console output differs between identical runs")
    _criterion(10, "verification reruns are byte-identical", problems)
