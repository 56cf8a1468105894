"""The certificates of `affsurf verify` and `affsurf hausdorff`, shared with
the acceptance gates.

Each check takes values its caller has already computed (solve results,
a limit fit, developing maps, point arrays, a distance report, a
quadrature tolerance) and returns ``(problems, detail)``: one string per
violated clause, empty when the check passes, and the detail dict that
the command writes into its report. A check that needs a family member
takes it from its solve or its fit (`SolveResult.member`,
`LimitEstimate.member`), so callers that share a result share the member.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import surface
from .develop import DevelopingMap
from .embedding import (
    VirtualPointRep,
    disk_image,
    edge_strip_chart,
    half_strip_chart,
    outer_chart,
    spiral_ball_chart,
    transition,
)
from .limitset import HAUSDORFF_ACCEPT, hausdorff_distance
from .solver import LimitEstimate, SolveResult

Outcome = Tuple[List[str], dict]


def k_label(K: float) -> str:
    """Aspect as written in reports and file names: integers without a dot."""
    if math.isinf(K):
        return "inf"
    if K == int(K) and abs(K) < 1e15:
        return str(int(K))
    # 12 digits unless they round K onto a neighbour, as 1.000000000001 -> "1"
    label = "%.12g" % K
    return label if float(label) == K else repr(K)


def square_identity(sol: SolveResult, points: np.ndarray) -> Outcome:
    """The K = 1 member is the identity: exact solve, zero connection, square image."""
    zeta_sup = float(np.max(np.abs(sol.member.connection(1j * np.linspace(-2.0, 2.0, 100)))))
    square_dev = float(np.max(np.abs(np.maximum(abs(points.real), abs(points.imag)) - 1.0)))
    problems = []
    if sol.prevertex != 1.0 + 1.0j:
        problems.append(f"prevertex {sol.prevertex} is not 1+1j")
    if sol.residual >= 1e-10:
        problems.append(f"residual {sol.residual:.2e}")
    if zeta_sup != 0.0:
        problems.append(f"zeta not identically zero, sup {zeta_sup:.2e}")
    if square_dev >= 1e-9:
        problems.append(f"square deviation {square_dev:.2e}")
    return problems, {
        "z1": sol.prevertex,
        "residual": sol.residual,
        "zeta_sup": zeta_sup,
        "square_deviation": square_dev,
    }


# bound on each solve's residual and on the cold/warm gap; verify refuses a
# solver tolerance that is not below it
SOLVER_RESIDUAL_MAX = 1e-8


def solver_residuals(
    cold: Mapping[float, SolveResult], warm: Mapping[float, SolveResult]
) -> Outcome:
    """Cold and warm-started solves converge, agree, and stay in the open quadrant.

    A cold solve starts where `solve_prevertex` starts without a guess, at
    the square's or the limit's prevertex; a warm one starts from the
    solved prevertex of the member at the square root of K. Residuals and
    gaps must stay under SOLVER_RESIDUAL_MAX.
    """
    problems = []
    per = {}
    for K, c in cold.items():
        w = warm[K]
        gap = abs(c.prevertex - w.prevertex)
        if c.residual >= SOLVER_RESIDUAL_MAX or w.residual >= SOLVER_RESIDUAL_MAX:
            problems.append(f"k={k_label(K)} residuals {c.residual:.2e}/{w.residual:.2e}")
        if not (c.prevertex.real > 0 and c.prevertex.imag > 0):
            problems.append(f"k={k_label(K)} prevertex {c.prevertex} outside open first quadrant")
        if gap >= SOLVER_RESIDUAL_MAX:
            problems.append(f"k={k_label(K)} cold/warm gap {gap:.2e}")
        per[k_label(K)] = {
            "z1": c.prevertex,
            "residual_cold": c.residual,
            "residual_warm": w.residual,
            "cold_warm_gap": gap,
        }
    return problems, per


def corner_holonomy(aspects: Iterable[float]) -> Outcome:
    """Each corner holonomy scales by K or 1/K and fixes its square corner.

    The fixed point is bounded, not exact: at K = 3 and 7 it is off by 1.1e-16.
    """
    problems = []
    worst_scale = 0.0
    worst_fix = 0.0
    for K in aspects:
        for corner in surface.CORNERS:
            h = surface.corner_holonomy(K, corner)
            scale = abs(h.a - K) if corner in ("ul", "br") else abs(h.a * K - 1.0)
            worst_scale = max(worst_scale, scale)
            if scale >= 1e-12:
                problems.append(f"k={k_label(K)} {corner} linear part off by {scale:.2e}")
            if h.is_identity(tol=0.0):
                continue
            fix = abs(h.fixed_point() - surface.CORNER_COORD[corner])
            worst_fix = max(worst_fix, fix)
            if fix >= 1e-12:
                problems.append(f"k={k_label(K)} {corner} fixed point off by {fix:.2e}")
    return problems, {"worst_scale_error": worst_scale, "worst_fixed_point_error": worst_fix}


def hole_loop_translation(solutions: Iterable[SolveResult], tol: float) -> Outcome:
    """Loop integrals of g' around each prevertex pair equal the hole translations."""
    problems = []
    per = {}
    for sol in solutions:
        K, z1 = sol.K, sol.prevertex
        dev = sol.member
        radius = 2.2 * z1.imag
        right = dev.loop_integral(complex(z1.real, 0.0), radius, tol=tol)
        left = dev.loop_integral(complex(-z1.real, 0.0), radius, tol=tol)
        gap = abs(right - surface.hole_monodromy(K, "right").b)
        balance = abs(left + right)
        if gap >= 1e-6:
            problems.append(f"k={k_label(K)} loop vs translation {gap:.2e}")
        if balance >= 1e-8:
            problems.append(f"k={k_label(K)} left+right {balance:.2e}")
        per[k_label(K)] = {"loop_vs_translation": gap, "left_right_sum": balance}
    return problems, per


def reflection_symmetry(
    clouds: Mapping[str, np.ndarray],
    axis_samples: Iterable[Tuple[str, DevelopingMap, np.ndarray]],
) -> Outcome:
    """Reflection symmetry of boundary clouds and reality of connections.

    Each named cloud must be invariant under z -> conj z and z -> -conj z,
    and each connection must be real at its real sample points. The detail
    holds the worst value of each quantity over all inputs.
    """
    problems = []
    d_conj = d_anti = zeta_imag = 0.0
    for name, pts in clouds.items():
        c = hausdorff_distance(pts, np.conj(pts))
        a = hausdorff_distance(pts, -np.conj(pts))
        if c >= 1e-6:
            problems.append(f"{name} conj asymmetry {c:.2e}")
        if a >= 1e-6:
            problems.append(f"{name} -conj asymmetry {a:.2e}")
        d_conj, d_anti = max(d_conj, c), max(d_anti, a)
    for name, dev, xs in axis_samples:
        sup = float(np.max(np.abs(dev.connection(xs).imag)))
        if sup >= 1e-10:
            problems.append(f"zeta at {name} not real on axis, sup {sup:.2e}")
        zeta_imag = max(zeta_imag, sup)
    return problems, {
        "conj_distance": d_conj,
        "anticonj_distance": d_anti,
        "zeta_imag_on_axis": zeta_imag,
    }


_T_GRID = (0.5, 0.1, 0.02, 0.004)

# (name, chart a, chart b, compact sample set, tolerance on the final sup)
TRANSITION_PAIRS = (
    ("half-strip-left-vs-outer", half_strip_chart("left"), outer_chart(),
     tuple(complex(x, y) for x in (-1.5, -0.6, 0.0) for y in (-0.7, 0.2, 0.7)), 1e-9),
    ("edge-strip-vs-outer-upper", edge_strip_chart(), outer_chart(),
     tuple(complex(x, y) for x in (-0.5, 0.3) for y in (1.2, 2.5)), 1e-9),
    ("edge-strip-vs-outer-lower", edge_strip_chart(), outer_chart(),
     tuple(complex(x, y) for x in (-0.5, 0.3) for y in (-1.2, -4.0)), 1e-2),
    ("half-strip-vs-spiral-ball", half_strip_chart("left"),
     spiral_ball_chart("ul", cmath.log(0.85 + 0.125j), 0.45),
     (0.8 + 1.3j, 0.9 + 1.2j, 0.9 + 0.95j, 0.75 + 1.05j), 1e-9),
)


def chart_transitions(pairs: Sequence[tuple] = TRANSITION_PAIRS) -> Outcome:
    """Criterion 08: coordinate changes converge to the limit change at rate at most 4t.

    The samples of each pair that lie in the overlap at the limit leaf are
    carried from chart a to chart b on every leaf of _T_GRID. The sups of
    their distances to the limit change must be non-increasing (to 1e-15)
    and end under the pair's tolerance, or all rest under it, and each
    sup/t must be at most 4. Charts that do not overlap on the samples fail.
    """
    problems = []
    per = {}
    for name, cha, chb, compact, tol in pairs:
        base = [(z, w) for z in compact if (w := transition(cha, chb, 0.0, z)) is not None]
        if not base:
            problems.append(f"{name}: charts do not overlap on the samples")
            per[name] = {"verdict": "empty", "rate_bound": None, "final_sup": None}
            continue
        sups = []
        for t in _T_GRID:
            gaps = [abs(wt - w) for z, w in base if (wt := transition(cha, chb, t, z)) is not None]
            sups.append(max(gaps, default=0.0))
        rate_bound = max(s / t for s, t in zip(sups, _T_GRID))
        # sequences resting at rounding noise need not be monotone
        below = all(s < tol for s in sups)
        decreasing = all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))
        verdict = "pass" if below or (decreasing and sups[-1] < tol) else "fail"
        if verdict != "pass":
            problems.append(f"{name} verdict {verdict}")
        if not rate_bound <= 4.0:
            problems.append(f"{name} rate bound {rate_bound:.3f} above 4")
        per[name] = {"verdict": verdict, "rate_bound": rate_bound, "final_sup": sups[-1]}
    return problems, per


def _sheet(n: int) -> VirtualPointRep:
    """A point of the ul end in the middle of sheet n's rectangle window."""
    seam, orient = surface.SPIRAL_SEAM["ul"]
    theta = seam + orient * (2 * math.pi * n - 0.25 * math.pi)
    return VirtualPointRep(
        cmath.exp(1j * (theta % (2 * math.pi))), spiral_ball_chart("ul", 1j * theta, 0.45)
    )


_STRIP = VirtualPointRep(1.0 + 0j, half_strip_chart("left"))

# (name, point x, point y, disk radius around x, disk radius around y)
SEPARATION_SCENARIOS = (
    ("strip-vs-first-sheet", _STRIP, _sheet(1), 0.4, 0.4),
    ("outer-vs-strip", VirtualPointRep(4.0 + 3.0j, outer_chart()), _STRIP, 0.5, 0.4),
    ("sheet-one-vs-sheet-two", _sheet(1), _sheet(2), 0.4, 0.4),
)
SEPARATION_ASPECTS = (10.0, 100.0, 1000.0, 10000.0)


def _strictly_inside(chart_id: surface.ChartId, center: complex, r: float, K: float) -> bool:
    x, y = abs(center.real), abs(center.imag)
    if chart_id is surface.ChartId.OUTER:
        return max(x, y) - r > 1.0
    if chart_id is surface.ChartId.RECT:
        return x + r < 1.0 and y + r < 1.0 / K
    return False


def separation_scenarios(scenarios: Sequence[tuple] = SEPARATION_SCENARIOS) -> Outcome:
    """Criterion 08: distinct limit points have disjoint disk images at every tested aspect.

    At each of SEPARATION_ASPECTS the closed disks around the two base
    points are pushed through their charts, with radii rounded outward so
    that "disjoint" survives the rounding. Images in one surface chart are
    "disjoint" or "overlapping" by their centres; images in two charts are
    "disjoint" when each lies strictly inside its open chart, and
    "indeterminate" otherwise. A fault of the table, identical limit points
    or a straddling disk, raises ValueError, which verify lets propagate.
    """
    problems = []
    per = {}
    for name, x, y, rx, ry in scenarios:
        if x.limit_point() == y.limit_point():
            raise ValueError(f"{name}: identical limit points cannot be separated")
        bad = []
        per[name] = {}
        for K in SEPARATION_ASPECTS:
            cx, ox, sx = disk_image(x.chart, K, x.a, rx)
            cy, oy, sy = disk_image(y.chart, K, y.a, ry)
            if cx is cy:
                verdict = "disjoint" if abs(ox - oy) > (sx + sy) * (1.0 + 1e-9) else "overlapping"
            elif _strictly_inside(cx, ox, sx, K) and _strictly_inside(cy, oy, sy, K):
                # different open charts are disjoint subsets of the surface
                verdict = "disjoint"
            else:
                verdict = "indeterminate"
            per[name][k_label(K)] = verdict
            if verdict != "disjoint":
                bad.append((K, verdict))
        if bad:
            problems.append(f"{name}: {bad}")
    return problems, per


# ------------------------------------------- the paper's convergence claims


def hole_shift(fit: LimitEstimate) -> float:
    """Magnitude of the additive monodromy at x0 of the fit's limit map,
    the hole translation, which the paper puts at 2."""
    return abs(fit.member.additive_monodromy_series(complex(fit.x0)))


def limit_data(sweep: Sequence[SolveResult], fit: LimitEstimate) -> Outcome:
    """Criterion 05: the prevertices merge and the limit data exist.

    Along the sweep (increasing aspects) Im z1 decreases, the fitted x0
    moves by less than 1e-3 when the sweep is thinned, and the additive
    monodromy at x0 of the fit's limit map is the hole translation 2
    within 5%.
    """
    heights = [r.prevertex.imag for r in sweep]
    shift = hole_shift(fit)
    problems = []
    if not all(b < a for a, b in zip(heights, heights[1:])):
        problems.append("Im z1 not decreasing along the sweep")
    if not fit.x0_stability < 1e-3:
        problems.append(f"x0 drift {fit.x0_stability:.2e} under grid thinning")
    if not 1.9 <= shift <= 2.1:
        problems.append(f"hole translation magnitude {shift:.4f} not within 5% of 2")
    return problems, {
        "x0": fit.x0,
        "tau": fit.tau,
        "x0_stability": fit.x0_stability,
        "hole_shift_magnitude": shift,
    }


# the segment [-2i, 2i] on which the connections are compared
CONNECTION_SAMPLES = 1j * np.linspace(-2.0, 2.0, 201)


def connection_convergence(sweep: Sequence[SolveResult], fit: LimitEstimate) -> Outcome:
    """Criterion 06: the connections converge to the limit connection.

    The sup over CONNECTION_SAMPLES of |finite - limit connection| must
    decrease strictly along the sweep (increasing aspects), and at K = 1e8
    be under a tenth of its value at K = 1e2; the sweep must hold both.
    """
    ref = fit.member.connection(CONNECTION_SAMPLES)
    sups = {}
    for r in sweep:
        sups[r.K] = float(np.max(np.abs(r.member.connection(CONNECTION_SAMPLES) - ref)))
    gaps = list(sups.values())
    ratio = sups[1e8] / sups[1e2]
    problems = []
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        problems.append(f"sups not strictly decreasing: {['%.3e' % g for g in gaps]}")
    if not ratio < 0.10:
        problems.append(f"sup at 1e8 is {100 * ratio:.1f}% of the 1e2 value")
    return problems, {"sups": {k_label(K): g for K, g in sups.items()}, "ratio": ratio}


def hausdorff_convergence(report: Mapping) -> Outcome:
    """Criterion 07: the boundary images converge to the limit configuration.

    report is a `limitset.convergence_report`. Its distances must decrease
    along the aspects and end under HAUSDORFF_ACCEPT, and moving the
    spiral cutoff must change the last one by less than a fifth of it.
    The verdict in the detail is "inconclusive" when the cutoff moves it
    more (the comparison cannot resolve the gap it is asked to certify)
    or a compared curve stopped short (the report's "incomplete" notes),
    "fail" for any other violated clause, and "pass" otherwise.
    """
    dists = [row["hausdorff"] for row in report["rows"]]
    final = report["final_distance"]
    sensitivity = report["truncation"]["sensitivity"]
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    problems = []
    if not decreasing:
        problems.append(f"distances not decreasing: {['%.4f' % d for d in dists]}")
    if not final < HAUSDORFF_ACCEPT:
        problems.append(f"final distance {final:.4f} above {HAUSDORFF_ACCEPT}")
    unresolved = []
    if not sensitivity < 0.2 * final:
        unresolved.append(f"truncation sensitivity {sensitivity:.2e} above 20%")
    if "incomplete" in report:
        unresolved.append("incomplete curves in " + ", ".join(sorted(report["incomplete"])))
    verdict = "inconclusive" if unresolved else "fail" if problems else "pass"
    return problems + unresolved, {
        "verdict": verdict,
        "final_distance": final,
        "threshold": HAUSDORFF_ACCEPT,
        "strictly_decreasing": decreasing,
    }
