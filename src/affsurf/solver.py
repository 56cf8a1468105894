"""Accessory-parameter solve.

For each aspect K the developing map must send the first-quadrant
prevertex to the upper-right square corner 1+i; that single complex
condition pins the prevertex. The residual integrates g' down a vertical
ray onto the prevertex, where |g'| <= 1 keeps the quadrature tame at any
aspect. A damped Broyden quasi-Newton iteration in two real dimensions
drives it to zero, with continuation in log K supplying starts that the
plain iteration could not reach on its own. The residual is not
holomorphic in the prevertex, so the Jacobian is a real 2x2 matrix: one
finite-difference Jacobian starts a continuation path, and rank-one
updates carry it from step to step and from aspect to aspect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .develop import DevelopingMap
from .quadrature import integrate_segment

CORNER_TARGET = 1 + 1j


@dataclass(frozen=True)
class SolveResult:
    K: float
    prevertex: complex
    residual: float
    iterations: int
    evaluations: int
    converged: bool


def corner_residual(K: float, prevertex: complex, quad_tol: float = 1e-12) -> complex:
    """g(prevertex) - (1+i), approached along the vertical ray from above.

    The ray runs from the tail radius, where the tail expansion supplies
    g, down to delta = 1e-12*(1+|prevertex|) above the prevertex; since
    |g'| <= 1 on the ray the truncation error is below delta. Near the
    prevertex g' ~ (w - z1)^(-beta) h(w) with beta purely imaginary, so
    it oscillates in log|w - z1|. The first quadrature level is therefore
    graded geometrically, in the Schwarz-Christoffel manner: break points
    at distances from z1 halving from tail_radius - Im z1 down to delta,
    about 43 panels on each of which the integrand is smooth, so one or two
    refinement levels finish the ray. The quadrature error budget is
    quad_tol, shared over the ray in proportion to panel length with a
    floor of 1e-4*quad_tol per panel; with the truncation the residual is
    accurate to about quad_tol + delta.
    """
    z1 = complex(prevertex)
    dev = DevelopingMap.from_aspect(K, z1)
    delta = 1e-12 * (1.0 + abs(z1))
    anchor = complex(z1.real, dev.tail_radius)
    end = z1 + 1j * delta
    # the ray runs down the slit's line but stops above the slit
    if dev.slit_crossings(anchor, end):
        raise ValueError(f"corner ray {anchor} -> {end} crosses a branch slit")
    grid = []
    d = 0.5 * (dev.tail_radius - z1.imag)
    while d > 2.0 * delta:
        grid.append(z1 + 1j * d)
        d *= 0.5
    ray = integrate_segment(dev.derivative, anchor, end, quad_tol, points=grid)
    return anchor + dev.tail_integral(anchor) + ray - CORNER_TARGET


# an accepted step that leaves |r| above this fraction of its previous
# value has outrun the Broyden Jacobian; the next step takes a fresh one
_SLOW_STEP = 0.1


def _fd_jacobian(K, z, quad_tol):
    """Real 2x2 Jacobian of the residual at z by central differences.

    The residual is not holomorphic in z, so both columns are probed:
    four residuals.
    """
    jac = np.empty((2, 2))
    for col, h in enumerate((1e-6 * (1 + abs(z.real)), 1e-6 * (1 + abs(z.imag)))):
        dz = h if col == 0 else 1j * h
        d = (corner_residual(K, z + dz, quad_tol) - corner_residual(K, z - dz, quad_tol)) / (2 * h)
        jac[0, col], jac[1, col] = d.real, d.imag
    return jac


def _broyden(K, z0, tol, quad_tol, max_iter, jac=None):
    """Damped Broyden iteration (Broyden, Math. Comp. 19, 1965) from z0.

    jac is a Jacobian carried from the previous solve on the path; without
    one the first step takes a finite-difference Jacobian. Each accepted
    step updates it by rank one. A fresh one is taken only after a failed
    line search or a step that left |r| above _SLOW_STEP times its old
    value; a failed line search on a fresh Jacobian ends the iteration.
    Returns
    (z, |r|, iterations, residuals, converged, jac), jac the Jacobian to
    carry on.
    """
    z = complex(z0)
    r = corner_residual(K, z, quad_tol)
    evals = 1
    refresh = jac is None
    for it in range(max_iter):
        if abs(r) <= tol:
            return z, abs(r), it, evals, True, jac
        if refresh:
            jac = _fd_jacobian(K, z, quad_tol)
            evals += 4
        fresh, refresh = refresh, False
        try:
            sx, sy = np.linalg.solve(jac, [-r.real, -r.imag])
        except np.linalg.LinAlgError:
            # no step: the quadrant guard rejects it like a failed line search
            sx = sy = math.nan
        step = complex(sx, sy)
        lam, accepted = 1.0, False
        for _ in range(8):
            cand = z + lam * step
            if cand.real > 0 and cand.imag > 0:
                r_new = corner_residual(K, cand, quad_tol)
                evals += 1
                if abs(r_new) < abs(r) * (1 - 0.25 * lam) or abs(r_new) <= tol:
                    accepted = True
                    break
            lam /= 2
        if not accepted:
            if fresh:
                break
            refresh = True
            continue
        s = np.array([lam * sx, lam * sy])
        dr = r_new - r
        jac = jac + np.outer(np.array([dr.real, dr.imag]) - jac @ s, s) / (s @ s)
        refresh = abs(r_new) > _SLOW_STEP * abs(r)
        z, r = cand, r_new
    return z, abs(r), max_iter, evals, abs(r) <= tol, jac


def _cold_start(K: float, quad_tol: float):
    """Walk the solution from aspect 1, a few geometric steps per decade.

    Returns the start for aspect K and the Jacobian carried up the ladder.
    """
    z, jac = CORNER_TARGET, None
    if K <= 1.3:
        return z, jac
    n = max(2, math.ceil(4 * math.log10(K)))
    for j in range(1, n + 1):
        Kj = K ** (j / n)
        z, res, _, _, ok, jac = _broyden(Kj, z, 1e-8, quad_tol, 40, jac)
        if not ok:
            raise ArithmeticError(f"continuation stalled at aspect {Kj:.4g} (residual {res:.2e})")
    return z, jac


def solve_prevertex(
    K: float,
    initial: Optional[complex] = None,
    tol: float = 1e-10,
    quad_tol: float = 1e-12,
) -> SolveResult:
    """Prevertex of the aspect-K member, in the open first quadrant.

    Without an initial guess the solve is seeded by continuation from the
    square, where the map is the identity and the prevertex is 1+i itself.
    The solver tolerance must exceed quad_tol: a residual cannot be
    certified below its own quadrature error budget.
    """
    return _solve(K, initial, None, tol, quad_tol)[0]


# Broyden iterations allowed for one solve
_MAX_ITER = 60


def _solve(K, initial, jac, tol, quad_tol):
    """solve_prevertex, starting from a carried Jacobian (None for none).

    Returns the result and the Jacobian to carry to the next aspect.
    """
    if math.isinf(K):
        raise ValueError("the limit has no finite prevertex; extrapolate a sweep instead")
    if not K >= 1.0:
        raise ValueError(f"aspect must be >= 1, got {K}")
    if tol <= quad_tol:
        raise ArithmeticError(
            f"residual tolerance {tol:.1e} is not above the quadrature tolerance {quad_tol:.1e}"
        )
    if K == 1.0:
        r = corner_residual(1.0, CORNER_TARGET, quad_tol)
        return SolveResult(1.0, CORNER_TARGET, abs(r), 0, 1, abs(r) <= tol), jac
    if initial is None:
        initial, jac = _cold_start(K, quad_tol)
    z, res, its, evals, ok, jac = _broyden(K, initial, tol, quad_tol, _MAX_ITER, jac)
    if not ok:
        raise ArithmeticError(f"no convergence at aspect {K:.6g}: residual {res:.2e} after {its} iterations")
    return SolveResult(float(K), z, res, its, evals, True), jac


def _warm_guess(prev: Sequence[SolveResult], K: float) -> Optional[complex]:
    """Extrapolate (Re z1, log Im z1) linearly in log K from the last two solves."""
    if not prev:
        return None
    if len(prev) == 1 or prev[-1].K <= 1.0:
        return prev[-1].prevertex
    a, b = prev[-2], prev[-1]
    la, lb, lk = math.log(a.K), math.log(b.K), math.log(K)
    if lb == la:
        return b.prevertex
    t = (lk - lb) / (lb - la)
    x = b.prevertex.real + t * (b.prevertex.real - a.prevertex.real)
    ly = math.log(b.prevertex.imag) + t * (math.log(b.prevertex.imag) - math.log(a.prevertex.imag))
    if x <= 0:
        return b.prevertex
    return complex(x, math.exp(ly))


def continuation_sweep(
    k_values: Sequence[float],
    tol: float = 1e-10,
    quad_tol: float = 1e-12,
) -> list[SolveResult]:
    """Solve an increasing aspect grid with warm starts.

    A failed step is retried once through the geometric midpoint before
    giving up.
    """
    ks = sorted(float(k) for k in k_values)
    if ks and ks[0] < 1.0:
        raise ValueError(f"aspects must be >= 1, got {ks[0]}")
    results: list[SolveResult] = []
    jac = None
    for K in ks:
        guess = _warm_guess(results, K)
        try:
            res, next_jac = _solve(K, guess, jac, tol, quad_tol)
        except ArithmeticError:
            mid = math.sqrt(results[-1].K * K) if results else math.sqrt(K)
            bridge, bridge_jac = _solve(mid, guess, jac, tol, quad_tol)
            retry = _warm_guess(results + [bridge], K)
            res, next_jac = _solve(K, retry, bridge_jac, tol, quad_tol)
        results.append(res)
        jac = next_jac
    return results


def _neville_at_zero(v: np.ndarray, f: np.ndarray) -> float:
    """Neville tableau evaluated at 0."""
    p = np.array(f, dtype=float)
    n = len(p)
    for m in range(1, n):
        for i in range(n - m):
            p[i] = (0.0 - v[i + m]) * p[i] / (v[i] - v[i + m]) + (0.0 - v[i]) * p[i + 1] / (
                v[i + m] - v[i]
            )
    return float(p[0])


@dataclass(frozen=True)
class LimitEstimate:
    x0: float
    tau: float
    x0_stability: float
    tau_stability: float
    points_used: int


# Neville order of the limit fit; the stability fit is one lower
_FIT_ORDER = 4


def extract_limit(results: Sequence[SolveResult]) -> LimitEstimate:
    """Limit parameters by Richardson extrapolation of a solved sweep.

    The pole abscissa Re z1 and the rescaled height log(K) Im z1 / pi are
    both smooth in 1/log K; Neville extrapolation to 0 of the last few sweep
    points estimates their limits. Stability numbers compare against a
    sweep thinned to every other aspect (largest kept), one order lower.
    """
    usable = [r for r in results if r.K > 1.0 and not math.isinf(r.K)]
    if len(usable) < 3:
        raise ValueError("need at least three solved aspects above 1")
    usable.sort(key=lambda r: r.K)
    L = np.array([math.log(r.K) for r in usable])
    v = 1.0 / L
    x = np.array([r.prevertex.real for r in usable])
    t = L * np.array([r.prevertex.imag for r in usable]) / math.pi

    def fit(vv, ff, kmax):
        k = min(kmax, len(vv) - 1)
        return _neville_at_zero(vv[-(k + 1):], ff[-(k + 1):])

    x0 = fit(v, x, _FIT_ORDER)
    tau = fit(v, t, _FIT_ORDER)
    # thin to every other point, keeping the largest aspect
    idx = np.arange(len(usable) - 1, -1, -2)[::-1]
    x0_h = fit(v[idx], x[idx], _FIT_ORDER - 1)
    tau_h = fit(v[idx], t[idx], _FIT_ORDER - 1)
    return LimitEstimate(
        x0=x0,
        tau=tau,
        x0_stability=abs(x0 - x0_h),
        tau_stability=abs(tau - tau_h),
        points_used=len(usable),
    )
