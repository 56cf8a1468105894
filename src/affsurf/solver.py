"""Accessory-parameter solve.

For each aspect K the developing map must send the first-quadrant
prevertex to the upper-right square corner 1+i; that single complex
condition pins the prevertex. The residual integrates g' down a vertical
ray onto the prevertex, where |g'| <= 1 keeps the quadrature tame at any
aspect. A damped Broyden quasi-Newton iteration in two real dimensions
drives it to zero. Near the square it starts from the square's own
prevertex 1+i; above aspect 2 it starts from the limit's prevertex
x0 + i*pi*tau/log K, which the family approaches like 1/log^2 K. The
residual is not holomorphic in the prevertex, so the Jacobian is a real
2x2 matrix: one finite-difference Jacobian starts each solve, and
rank-one updates carry it from step to step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .develop import DevelopingMap
from .quadrature import integrate_segment

CORNER_TARGET = 1 + 1j


@dataclass(frozen=True)
class SolveResult:
    """A solved aspect, the solve's cost and its member. converged is
    always True: a solve that does not converge raises."""

    K: float
    prevertex: complex
    residual: float
    iterations: int
    evaluations: int
    converged: bool

    @cached_property
    def member(self) -> DevelopingMap:
        """The aspect-K developing map at the solved prevertex, built once."""
        return DevelopingMap.from_aspect(self.K, self.prevertex)


# samples of the ray's analytic factor H on the circle |t| = 2r, and the
# DFT matrix that takes them to the scaled Taylor coefficients c_k r^k =
# (1/64) sum_j H(2r e^(2 pi i j/64)) e^(-2 pi i jk/64) / 2^k; its entries
# are the sample points' conjugates, indexed by jk mod 64
_END_SAMPLES = 64
_END_CIRCLE = np.exp(2j * np.pi * np.arange(_END_SAMPLES) / _END_SAMPLES)
_END_DFT = np.conj(
    _END_CIRCLE[np.arange(_END_SAMPLES)[:, None] * np.arange(_END_SAMPLES) % _END_SAMPLES]
) / (_END_SAMPLES * 2.0 ** np.arange(_END_SAMPLES)[:, None])


def _ray_factor(z1: complex, b: float, t):
    """H(t) = (2 Im z1 + t)^beta ((2 Re z1 + it)/(2 z1 + it))^beta, beta = -i b.

    The analytic factor of g'(z1 + it) = t^(-beta) H(t) (corner_residual).
    All three factors have positive real part for |t| < rho = 2 min(Re z1,
    Im z1), and their arguments stay within pi/6 of their values at t = 0
    on |t| <= rho/2, so arg A of their product A lies in (-pi, pi/2) there
    and beta Log A = b arg A - i (b/2) ln|A|^2 is analytic: one real log
    and one atan2 per point, as in the developing map's kernel.
    """
    a = (2.0 * z1.imag + t) * (2.0 * z1.real + 1j * t) / (2.0 * z1 + 1j * t)
    x, y = a.real, a.imag
    return np.exp(b * np.arctan2(y, x) - 0.5j * b * np.log(x * x + y * y))


def corner_residual(K: float, prevertex: complex, quad_tol: float = 1e-12) -> complex:
    """g(prevertex) - (1+i), approached along the vertical ray from above.

    The ray runs from the tail radius, where the tail expansion supplies
    g, down to the prevertex z1. On it, with w = z1 + it, t > 0, the two
    Moebius ratios of g' are (w-z4)/(w-z1) = (2 Im z1 + t)/t, a positive
    real, and (w-z2)/(w-z3) = (2 Re z1 + it)/(2 z1 + it), whose factors
    both lie in the first quadrant, so the principal logs split and

        g'(z1 + it) = t^(-beta) H(t),
        H(t) = (2 Im z1 + t)^beta ((2 Re z1 + it)/(2 z1 + it))^beta,

    with beta = log K/(2 pi i) purely imaginary, so |t^(-beta)| = 1. The
    singular factor t^(-beta) oscillates in log t; H is analytic on
    |t| < rho = 2 min(Re z1, Im z1), where its nearest branch point lies
    (_ray_factor). The ray is split at z1 + ir, r = rho/(4 max(1, |beta|)).

    The head, from the tail radius down to z1 + ir, is integrated by GK15
    on a first level graded geometrically in the distance t from z1, in
    the Schwarz-Christoffel manner, at a ratio of at most sqrt(2): on each
    panel the integrand is smooth enough that the first level is accepted
    up to about K = 1e11; from about 1e30, where t^(-beta) turns by
    several radians a panel, it is refined. Its error budget is quad_tol.

    The end, from z1 + ir to z1, is product integration of the known
    singular factor (Trefethen, SIAM J. Sci. Stat. Comput. 1, 1980):
    with H = sum c_k t^k,

        int_{z1+ir}^{z1} g' dw = -i sum_k c_k r^(k+1-beta)/(k+1-beta).

    The c_k r^k come from 64 samples of H on |t| = 2r through a fixed
    DFT matrix. Why r shrinks with |beta|: |H(t)| = exp(b arg A(t)) with
    b = |beta| (_ray_factor), and on |t| = s each of A's three factors
    turns by at most asin(s/rho) from its value at t = 0, so |H| can
    grow by up to exp(3 b asin(s/rho)). At s = rho/2, the circle of a
    plain r = rho/4, that is K^(1/4), and the series would lose as many
    digits. At s = 2r = rho/(2 max(1, |beta|)) it is at most e^(pi/2) at
    any aspect, and |H(0)| = exp(-b arg z1) <= 1. So Cauchy's bound on
    that circle gives |c_k| r^k <= e^(pi/2) 2^(-k), and with
    r <= Im z1/2 <= 1/2 on the family the terms after the first n add at
    most 5 * 2^(-n)/(n+1); n = log2(1/quad_tol) terms keep that below
    quad_tol. Aliasing from the 64 samples is below 2^-64 in the same
    scale, so the whole residual is accurate to about quad_tol.
    """
    z1 = complex(prevertex)
    dev = DevelopingMap.from_aspect(K, z1)
    r = 2.0 * min(z1.real, z1.imag) / (4.0 * max(1.0, abs(dev.beta)))
    anchor = complex(z1.real, dev.tail_radius)
    top = dev.tail_radius - z1.imag
    panels = math.ceil(2.0 * math.log2(top / r))
    grid = z1 + 1j * r * (top / r) ** (np.arange(1, panels) / panels)
    head = integrate_segment(dev.derivative, anchor, z1 + 1j * r, quad_tol, points=grid)
    terms = min(_END_SAMPLES, max(1, math.ceil(-math.log2(quad_tol))))
    coeffs = _END_DFT[:terms] @ _ray_factor(z1, dev._b, 2.0 * r * _END_CIRCLE)
    k1 = np.arange(1, terms + 1) - dev.beta
    end = -1j * r * cmath.exp(-dev.beta * math.log(r)) * complex(np.sum(coeffs / k1))
    return anchor + dev.tail_integral(anchor) + head + end - CORNER_TARGET


# an accepted step that leaves |r| above this fraction of its previous
# value has outrun the Broyden Jacobian; the next step takes a fresh one
_SLOW_STEP = 0.1

# Broyden iterations allowed for one solve
_MAX_ITER = 60


def _fd_jacobian(residual, z):
    """Real 2x2 Jacobian of residual at z by central differences.

    The residual is not holomorphic in z, so both columns are probed:
    four residuals.
    """
    jac = np.empty((2, 2))
    for col, h in enumerate((1e-6 * (1 + abs(z.real)), 1e-6 * (1 + abs(z.imag)))):
        dz = h if col == 0 else 1j * h
        d = (residual(z + dz) - residual(z - dz)) / (2 * h)
        jac[0, col], jac[1, col] = d.real, d.imag
    return jac


def _broyden(residual, z0, tol):
    """Damped Broyden iteration (Broyden, Math. Comp. 19, 1965) on residual from z0.

    The first step takes a finite-difference Jacobian, and each accepted
    step updates it by rank one. A fresh one is taken only after a failed
    line search or a step that left |r| above _SLOW_STEP times its old
    value; a failed line search on a fresh Jacobian ends the iteration.
    Returns (z, |r|, iterations, residuals, converged).
    """
    z = complex(z0)
    r = residual(z)
    evals = 1
    refresh = True
    for it in range(_MAX_ITER):
        if abs(r) <= tol:
            return z, abs(r), it, evals, True
        if refresh:
            jac = _fd_jacobian(residual, z)
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
                r_new = residual(cand)
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
    return z, abs(r), _MAX_ITER, evals, abs(r) <= tol


# a few digits of the limit (x0, tau), enough for a start within the
# Broyden iteration's reach from aspect 2 up
_LIMIT_START = (1.91335, 0.34715)


def _start(K: float) -> complex:
    """Where the aspect-K solve starts without a guess.

    Up to aspect 2 at the square's prevertex 1+i, above it at the limit's
    prevertex x0 + i*pi*tau/log K: the limit start fails near the square
    (at K = 1.01 its first residual does), and 1+i fails far out (at 1e6).
    """
    if K <= 2.0:
        return CORNER_TARGET
    x0, tau = _LIMIT_START
    return complex(x0, math.pi * tau / math.log(K))


def solve_prevertex(
    K: float,
    initial: Optional[complex] = None,
    tol: float = 1e-10,
    quad_tol: float = 1e-12,
) -> SolveResult:
    """Prevertex of the aspect-K member, in the open first quadrant.

    One Broyden iteration from initial, or without it from _start(K),
    which at the square is the answer. The solver tolerance must exceed
    quad_tol: a residual cannot be certified below its own quadrature
    error budget.
    """
    if math.isinf(K):
        raise ValueError("the limit has no finite prevertex; extrapolate a sweep instead")
    if not K >= 1.0:
        raise ValueError(f"aspect must be >= 1, got {K}")
    if tol <= quad_tol:
        raise ArithmeticError(
            f"residual tolerance {tol:.1e} is not above the quadrature tolerance {quad_tol:.1e}"
        )
    z0 = _start(K) if initial is None else initial
    z, res, its, evals, ok = _broyden(lambda z: corner_residual(K, z, quad_tol), z0, tol)
    if not ok:
        raise ArithmeticError(f"no convergence at aspect {K:.6g}: residual {res:.2e} after {its} iterations")
    return SolveResult(float(K), z, res, its, evals, True)


def continuation_sweep(
    k_values: Sequence[float],
    tol: float = 1e-10,
    quad_tol: float = 1e-12,
) -> list[SolveResult]:
    """solve_prevertex at each aspect of a grid, in increasing order.

    Each aspect is solved from its own start, so the order carries nothing
    from one solve to the next.
    """
    return [solve_prevertex(K, tol=tol, quad_tol=quad_tol) for K in sorted(map(float, k_values))]


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
    """A limit fit; it exists only where it defines a limit map, x0 > 0 and tau > 0."""

    x0: float
    tau: float
    x0_stability: float
    tau_stability: float
    points_used: int

    def __post_init__(self) -> None:
        if not (self.x0 > 0 and self.tau > 0):
            raise ArithmeticError(f"no limit map for the fit x0 {self.x0}, tau {self.tau}")

    @cached_property
    def member(self) -> DevelopingMap:
        """The limit map of the fit, built once."""
        return DevelopingMap.merged_limit(self.x0, self.tau)


# Neville order of the limit fit; the stability fit is one lower
_FIT_ORDER = 4


def extract_limit(results: Sequence[SolveResult]) -> LimitEstimate:
    """Limit parameters by Richardson extrapolation of a solved sweep.

    The pole abscissa Re z1 and the rescaled height log(K) Im z1 / pi are
    both smooth in 1/log K; Neville extrapolation to 0 of the last few sweep
    points estimates their limits. Stability numbers compare against a
    sweep thinned to every other aspect (largest kept), one order lower.
    """
    usable = [r for r in results if r.K > 1.0]
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
