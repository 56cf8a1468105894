"""The ten release gates, one test per criterion.

Each test prints a single PASS/FAIL line naming the criterion, so a -v
run shows the full ledger either through the test names or through the
printed lines. Failures collect every violated clause into that line
instead of stopping at the first assert.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from affsurf.cli import make_config, run
from affsurf.develop import DevelopingMap, connection_limit_check
from affsurf.embedding import (
    VirtualPointRep,
    edge_strip_chart,
    half_strip_chart,
    outer_chart,
    separation_check,
    spiral_ball_chart,
    transition_continuity_check,
)
from affsurf.limitset import (
    HAUSDORFF_ACCEPT,
    convergence_report,
    hausdorff_distance,
    limit_image_cloud,
    rectangle_image_boundary,
)
from affsurf.solver import continuation_sweep, extract_limit, solve_prevertex
from affsurf.surface import CORNER_COORD, CORNERS, corner_holonomy, hole_monodromy

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
    sols = {r.K: r for r in continuation_sweep((2.0, 5.0, 1000.0))}
    TIMINGS["warm"] = time.perf_counter() - t0
    return sols


@pytest.fixture(scope="module")
def limit_cloud_points(limit_fit):
    return limit_image_cloud(limit_fit.x0, limit_fit.tau).points


def test_criterion_01_square_exactness():
    problems = []
    t0 = time.perf_counter()
    sol = solve_prevertex(1.0)
    if sol.prevertex != 1.0 + 1.0j or sol.residual >= 1e-10:
        problems.append(f"solve gave {sol.prevertex} residual {sol.residual:.2e}")
    conn = DevelopingMap.from_aspect(1.0, sol.prevertex)
    zeta_sup = float(np.max(np.abs(conn.connection(1j * np.linspace(-2.0, 2.0, 100)))))
    if zeta_sup != 0.0:
        problems.append(f"zeta not identically zero, sup {zeta_sup:.2e}")
    dev = DevelopingMap.from_aspect(1.0, sol.prevertex)
    pts = rectangle_image_boundary(dev, spacing=0.004).points
    square_gap = float(np.max(np.abs(np.maximum(np.abs(pts.real), np.abs(pts.imag)) - 1.0)))
    if square_gap >= 1e-9:
        problems.append(f"square deviation {square_gap:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _criterion(1, "square member is exact", problems)


def test_criterion_02_solver_success(cold_solutions, warm_solutions):
    problems = []
    for K in (2.0, 5.0, 1000.0):
        c, w = cold_solutions[K], warm_solutions[K]
        if c.residual >= 1e-8 or w.residual >= 1e-8:
            problems.append(f"k={K:g} residuals {c.residual:.2e}/{w.residual:.2e}")
        if not (c.prevertex.real > 0 and c.prevertex.imag > 0):
            problems.append(f"k={K:g} prevertex {c.prevertex} outside open first quadrant")
        gap = abs(c.prevertex - w.prevertex)
        if gap >= 1e-8:
            problems.append(f"k={K:g} cold/warm gap {gap:.2e}")
    elapsed = TIMINGS["cold"] + TIMINGS["warm"]
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _criterion(2, "corner condition solved at 2, 5, 1000", problems)


def test_criterion_03_monodromy_cross_check(cold_solutions):
    problems = []
    for K in (2.0, 5.0):
        z1 = cold_solutions[K].prevertex
        dev = DevelopingMap.from_aspect(K, z1)
        radius = 2.2 * z1.imag
        right = dev.loop_integral(complex(z1.real, 0.0), radius)
        left = dev.loop_integral(complex(-z1.real, 0.0), radius)
        shift = hole_monodromy(K, "right", "ccw").b
        if abs(right - shift) >= 1e-6:
            problems.append(f"k={K:g} loop vs translation {abs(right - shift):.2e}")
        if abs(left + right) >= 1e-8:
            problems.append(f"k={K:g} left+right {abs(left + right):.2e}")
    _criterion(3, "loop integrals match hole translations", problems)


def test_criterion_04_holonomy_exactness():
    problems = []
    for K in (2.0, 5.0, 1000.0):
        for corner in CORNERS:
            h = corner_holonomy(K, corner)
            scale = abs(h.a - K) if corner in ("ul", "br") else abs(h.a * K - 1.0)
            if scale >= 1e-12:
                problems.append(f"k={K:g} {corner} linear part off by {scale:.2e}")
            if h.fixed_point() != CORNER_COORD[corner]:
                problems.append(f"k={K:g} {corner} fixed point {h.fixed_point()}")
    _criterion(4, "corner holonomy is the exact similitude", problems)


def test_criterion_05_merge_and_limit_data(sweep8, limit_fit):
    problems = []
    heights = [r.prevertex.imag for r in sweep8]
    if not all(b < a for a, b in zip(heights, heights[1:])):
        problems.append("Im z1 not decreasing along the sweep")
    if not limit_fit.x0_stability < 1e-3:
        problems.append(f"x0 drift {limit_fit.x0_stability:.2e} under grid thinning")
    if not limit_fit.tau > 0:
        problems.append(f"tau {limit_fit.tau}")
    dev = DevelopingMap.merged_limit(limit_fit.x0, limit_fit.tau)
    shift = abs(dev.additive_monodromy_series(complex(limit_fit.x0)))
    if not 1.9 <= shift <= 2.1:
        problems.append(f"hole translation magnitude {shift:.4f} not within 5% of 2")
    elapsed = TIMINGS["sweep"]
    if elapsed >= 300.0:
        problems.append(f"sweep took {elapsed:.1f}s, budget 300s")
    _criterion(5, "prevertex merge and extrapolated limit data", problems)


def test_criterion_06_connection_convergence(sweep8, limit_fit):
    problems = []
    samples = 1j * np.linspace(-2.0, 2.0, 201)
    family = [DevelopingMap.from_aspect(r.K, r.prevertex) for r in sweep8]
    limit = DevelopingMap.merged_limit(limit_fit.x0, limit_fit.tau)
    sups, decreasing = connection_limit_check(family, limit, samples)
    if not decreasing:
        problems.append(f"sups not strictly decreasing: {['%.3e' % s for s in sups]}")
    by_k = dict(zip([r.K for r in sweep8], sups))
    ratio = by_k[1e8] / by_k[1e2]
    if not ratio < 0.10:
        problems.append(f"sup at 1e8 is {100 * ratio:.1f}% of the 1e2 value")
    _criterion(6, "connection converges on the segment [-2i, 2i]", problems)


def test_criterion_07_hausdorff_convergence(sweep8):
    problems = []
    t0 = time.perf_counter()
    report = convergence_report(
        [1e2, 1e3, 1e4, 1e5, 1e6], solutions=sweep8, threshold=HAUSDORFF_ACCEPT
    )
    elapsed = time.perf_counter() - t0
    dists = [row["hausdorff"] for row in report["rows"]]
    if not report["strictly_decreasing"]:
        problems.append(f"distances not decreasing: {['%.4f' % d for d in dists]}")
    if not report["final_distance"] < HAUSDORFF_ACCEPT:
        problems.append(
            f"final distance {report['final_distance']:.4f} above {HAUSDORFF_ACCEPT}"
        )
    sensitivity = report["truncation"]["sensitivity"]
    if not sensitivity < 0.2 * report["final_distance"]:
        problems.append(f"truncation sensitivity {sensitivity:.2e} above 20%")
    if report["verdict"] != "pass":
        problems.append(f"verdict {report['verdict']}")
    if elapsed >= 600.0:
        problems.append(f"took {elapsed:.1f}s, budget 600s")
    _criterion(7, "boundary images converge to the limit configuration", problems)


def test_criterion_08_embedding_contract():
    problems = []
    t_grid = (0.5, 0.1, 0.02, 0.004)
    ball = spiral_ball_chart("ul", np.log(0.85 + 0.125j), 0.45)
    pairs = (
        ("half-strip/outer", half_strip_chart("left"), outer_chart(),
         [complex(x, y) for x in (-1.5, -0.6, 0.0) for y in (-0.7, 0.2, 0.7)], 1e-9),
        ("edge-strip/outer upper", edge_strip_chart(), outer_chart(),
         [complex(x, y) for x in (-0.5, 0.3) for y in (1.2, 2.5)], 1e-9),
        ("edge-strip/outer lower", edge_strip_chart(), outer_chart(),
         [complex(x, y) for x in (-0.5, 0.3) for y in (-1.2, -4.0)], 1e-2),
        ("half-strip/spiral ball", half_strip_chart("left"), ball,
         [0.8 + 1.3j, 0.9 + 1.2j, 0.9 + 0.95j, 0.75 + 1.05j], 1e-9),
    )
    for name, cha, chb, compact, tol in pairs:
        rep = transition_continuity_check(cha, chb, compact, t_grid, tol=tol)
        if rep["verdict"] != "pass":
            problems.append(f"{name} verdict {rep['verdict']}")
        if not rep["rate_bound"] <= 4.0:
            problems.append(f"{name} rate bound {rep['rate_bound']:.3f} above 4")

    def sheet(n):
        theta = 7 * math.pi / 4 + 2 * math.pi * (n - 1)
        return VirtualPointRep(
            np.exp(1j * (theta % (2 * math.pi))), spiral_ball_chart("ul", 1j * theta, 0.45)
        )

    strip = VirtualPointRep(1.0 + 0j, half_strip_chart("left"))
    far = VirtualPointRep(4.0 + 3.0j, outer_chart())
    scenarios = (
        ("strip vs first sheet", strip, sheet(1), 0.4, 0.4),
        ("outer vs strip", far, strip, 0.5, 0.4),
        ("equal-projection sheets", sheet(1), sheet(2), 0.4, 0.4),
    )
    ks = (10.0, 100.0, 1000.0, 10000.0)
    for name, x, y, rx, ry in scenarios:
        rep = separation_check(x, y, ks, rx, ry)
        bad = [r for r in rep["per_k"] if r["verdict"] != "disjoint"]
        if bad:
            problems.append(f"{name}: {[(r['K'], r['verdict']) for r in bad]}")
    _criterion(8, "leaf charts stay continuous and separated", problems)


def test_criterion_09_symmetry_suite(cold_solutions, limit_fit, limit_cloud_points):
    problems = []
    clouds = {"limit": limit_cloud_points}
    for K, sol in cold_solutions.items():
        dev = DevelopingMap.from_aspect(K, sol.prevertex)
        clouds[f"k={K:g}"] = rectangle_image_boundary(dev, spacing=0.01).points
    for name, pts in clouds.items():
        d_conj = hausdorff_distance(pts, np.conj(pts))
        d_anti = hausdorff_distance(pts, -np.conj(pts))
        if d_conj >= 1e-6:
            problems.append(f"{name} conj asymmetry {d_conj:.2e}")
        if d_anti >= 1e-6:
            problems.append(f"{name} -conj asymmetry {d_anti:.2e}")
    rng = np.random.default_rng(20260817)
    xs = rng.uniform(-6.0, 6.0, 128)
    for K, sol in cold_solutions.items():
        conn = DevelopingMap.from_aspect(K, sol.prevertex)
        sup = float(np.max(np.abs(conn.connection(xs).imag)))
        if sup >= 1e-10:
            problems.append(f"zeta at k={K:g} not real on axis, sup {sup:.2e}")
    limit_conn = DevelopingMap.merged_limit(limit_fit.x0, limit_fit.tau)
    off_poles = xs[np.abs(np.abs(xs) - limit_fit.x0) > 0.3]
    sup = float(np.max(np.abs(limit_conn.connection(off_poles).imag)))
    if sup >= 1e-10:
        problems.append(f"limit zeta not real on axis, sup {sup:.2e}")
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
