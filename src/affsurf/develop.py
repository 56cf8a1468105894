"""Developing map of a uniformized family member.

g maps the uniformized plane, minus the four prevertices (finite aspect) or
the two merged singular points (limit), to the outer-chart coordinate, and
is normalized by g(w) = w + O(1/w) at infinity. The derivative has the
closed form

    g'(w) = exp(beta * (Log((w-z4)/(w-z1)) + Log((w-z2)/(w-z3)))),

principal logarithms, beta = log(K)/(2*pi*i) = -i b with b real. So with
r1, r2 the two ratios, log g' = b (arg r1 + arg r2) - i (b/2) (ln|r1|^2 +
ln|r2|^2): one real log and one atan2 per ratio, never a complex log.
Each Moebius ratio sends the vertical segment joining its pole pair to the
negative reals, so this expression is single-valued and holomorphic
exactly off the two closed vertical slits between conjugate poles, and
crossing a slit multiplies g' by K or 1/K; DevelopingMap.slit_crossings
finds the crossings of a segment and states the sign convention. develop()
refuses slit-crossing paths; the curve tracker carries an explicit winding
count instead.

In the limit the pole pairs merge and

    g'(w) = exp(tau/(w-x0) - tau/(w+x0))

is single-valued with essential singularities at +-x0; a loop around one of
them adds 2*pi*i*Res(g') to g.

The rational connection g''/g' = d/dw log g' carries the degeneration in
its pole structure: four simple poles at the prevertices with alternating
residues +-beta at finite aspect, two double poles at +-x0 in the limit.
It has one kernel, on Python floats, which takes an array point by point;
log g' and g' take arrays on numpy.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Sequence

import numpy as np

from .quadrature import integrate_segment

SERIES_TERMS = 26
# terms of the additive monodromy series at a limit map's essential point
MONODROMY_TERMS = 48

# residue sign of the connection at each prevertex, in prevertex_ring order
PREVERTEX_SIGNS = (-1.0, +1.0, -1.0, +1.0)

# default tolerance of develop, develop_at and loop_integral, shared out
# over a path's segments in proportion to their number or length
DEVELOP_TOL = 1e-11


def prevertex_ring(z1: complex) -> tuple[complex, complex, complex, complex]:
    """The four prevertices in counterclockwise order from the first quadrant."""
    z1 = complex(z1)
    return (z1, -z1.conjugate(), -z1, z1.conjugate())


class DevelopingMap:
    """One family member: its connection, and the derivative, tail expansion
    and path integration of its developing map.

    Use from_aspect (finite K) or merged_limit (K = inf). Pointwise methods
    accept scalars or arrays.
    """

    def __init__(self, kind: str, K: float = 1.0, z1: complex = 0j,
                 x0: float = 0.0, tau: float = 0.0):
        self.kind = kind
        if kind == "finite":
            if math.isinf(K) or not K >= 1.0:
                raise ValueError(f"finite aspect in [1, inf) required, got {K}")
            z1 = complex(z1)
            if not (z1.real > 0 and z1.imag > 0):
                raise ValueError(f"prevertex must lie in the open first quadrant, got {z1}")
            self.K = float(K)
            self.beta = math.log(K) / (2j * math.pi)
            self._b = math.log(K) / (2.0 * math.pi)
            self.poles = prevertex_ring(z1)
            self._z1_parts = (z1.real, z1.imag)
            p1, p2, p3, p4 = self.poles
            # numerators of the two Moebius ratios in log g'
            self._numerators = np.array([p1 - p4, p3 - p2])
            # at the square g' = 1 has no jump, so it has no slits
            self.slits = ((z1.real, z1.imag), (-z1.real, z1.imag)) if self.K > 1.0 else ()
        elif kind == "limit":
            if not (x0 > 0 and tau > 0):
                raise ValueError(f"need x0 > 0 and tau > 0, got {x0}, {tau}")
            self.K = math.inf
            self.x0, self.tau = float(x0), float(tau)
            self.poles = (x0 + 0j, -x0 + 0j)
            self.slits = ()
        else:
            raise ValueError(f"unknown kind {kind!r}")
        # pole array and scale are fixed per member; the pointwise methods
        # run once per lock-step round and must not rebuild them per call
        self._pole_array = np.array(self.poles, dtype=complex)
        self._pole_scale = 1.0 + max(abs(p) for p in self.poles)
        # a point whose squared distance to every pole is at least this lies
        # outside the connection's clearance 1e-12 * _pole_scale
        self._screen = (2e-12 * self._pole_scale) ** 2
        self.tail_radius = 10.0 * self._pole_scale

    @classmethod
    def from_aspect(cls, K: float, prevertex: complex) -> "DevelopingMap":
        return cls("finite", K=K, z1=prevertex)

    @classmethod
    def merged_limit(cls, x0: float, tau: float) -> "DevelopingMap":
        return cls("limit", x0=x0, tau=tau)

    # -- pointwise evaluation ------------------------------------------------

    def _pole_offsets(self, arr, rel: float) -> np.ndarray:
        """arr[..., None] - poles, after refusing any point that lies within
        rel*(1 + max|pole|) of a pole. The refusal is a numerical give-up,
        an ArithmeticError, which the tracker retries with a shorter step."""
        offsets = arr[..., None] - self._pole_array
        near = np.abs(offsets) < rel * self._pole_scale
        if np.count_nonzero(near):
            # name the first pole in ring order that some point is too close to
            p = self.poles[int(near.reshape(-1, len(self.poles)).any(axis=0).argmax())]
            raise ArithmeticError(f"evaluation too close to the singular point {p}")
        return offsets

    def connection(self, w):
        """The rational connection g''/g' = d/dw log g'. Scalar or ndarray.

        One kernel, on Python floats; an array is evaluated point by point,
        so each element is its point's value by construction. In real
        arithmetic, 1/(w - z) = (dx - i dy)/(dx^2 + dy^2) for the offset
        w - z = dx + i dy; beyond |w| ~ 1e154 dx^2 overflows to inf and the
        term to 0, without a warning. The terms are paired so that both
        reflections only swap or negate them: c(conj w) = conj c(w) and
        c(-conj w) = -conj c(w) hold exactly, and c is exactly real on the
        real axis. A point whose squared pole distances fall within twice
        the clearance goes on to _pole_offsets, which refuses one inside it.
        """
        if type(w) is not complex:
            arr = np.asarray(w, dtype=complex)
            if arr.ndim:
                out = [self.connection(p) for p in arr.ravel().tolist()]
                return np.array(out, dtype=complex).reshape(arr.shape)
            w = complex(arr)
        x, y = w.real, w.imag
        if self.kind == "finite":
            # the offsets w - z_k in ring order are (xm, ym), (xp, ym),
            # (xp, yp) and (xm, yp). With t_k = 1/(w - z_k) and beta = -i b,
            # c = beta * sum of PREVERTEX_SIGNS[k] t_k
            #   = beta ((t4 - t1) + (t2 - t3)),
            # each pair swapped or negated by one reflection
            a, b = self._z1_parts
            xm, xp, ym, yp = x - a, x + a, y - b, y + b
            xm2, xp2, ym2, yp2 = xm * xm, xp * xp, ym * ym, yp * yp
            d1, d2, d3, d4 = xm2 + ym2, xp2 + ym2, xp2 + yp2, xm2 + yp2
            s = self._screen
            if d1 < s or d2 < s or d3 < s or d4 < s:
                self._pole_offsets(np.array(w), 1e-12)
            return complex(self._b * ((ym / d1 - yp / d4) + (yp / d3 - ym / d2)),
                           -self._b * ((xm / d4 - xm / d1) + (xp / d2 - xp / d3)))
        # c = tau (t1^2 - t0^2), t0 = 1/(w - x0) = r0 - i q0, t1 = 1/(w + x0)
        xm, xp, y2 = x - self.x0, x + self.x0, y * y
        d0, d1 = xm * xm + y2, xp * xp + y2
        if d0 < self._screen or d1 < self._screen:
            self._pole_offsets(np.array(w), 1e-12)
        r0, q0, r1, q1 = xm / d0, y / d0, xp / d1, y / d1
        return complex(self.tau * ((r1 * r1 - q1 * q1) - (r0 * r0 - q0 * q0)),
                       self.tau * (2.0 * r0 * q0 - 2.0 * r1 * q1))

    def _log_derivative(self, arr: np.ndarray):
        """log g' on a complex ndarray, the pointwise methods' shared kernel."""
        offsets = self._pole_offsets(arr, 1e-13)
        if self.kind == "finite":
            # r = 1 + u, u = (z1-z4)/(w-z1) and (z3-z2)/(w-z3). ln|r|^2 takes
            # log1p where |u| < 1e-3, where the plain log loses u's digits,
            # and only there: near u = -1 x(2+x) cancels to log1p(-1) = -inf
            u = self._numerators / offsets[..., 0::2]
            x, y = u.real, u.imag
            v = 1.0 + x
            mod2 = np.log(v * v + y * y)
            small = np.abs(u) < 1e-3
            if np.count_nonzero(small):
                xs, ys = x[small], y[small]
                mod2[small] = np.log1p(xs * (2.0 + xs) + ys * ys)
            arg = np.arctan2(y, v)
            out = np.empty(arr.shape, dtype=complex)
            out.real = self._b * (arg[..., 0] + arg[..., 1])
            out.imag = -0.5 * self._b * (mod2[..., 0] + mod2[..., 1])
            return out
        # 1/(w-x0) - 1/(w+x0) written without cancellation at large w, with
        # w-x0 and w+x0 the pole offsets, divided one at a time as their
        # product overflows far out. They are arrays (0-d for a single
        # point), so each quotient takes numpy's array loop either way; the
        # numpy scalars of a single point's w-x0 would round differently
        return self.tau * 2.0 * self.x0 / offsets[..., 0] / offsets[..., 1]

    def log_derivative(self, w):
        """Principal branch of log g'. Scalar or ndarray."""
        arr = np.asarray(w, dtype=complex)
        out = self._log_derivative(arr)
        return complex(out) if arr.ndim == 0 else out

    def derivative(self, w):
        """g' = exp(log g'), principal branch. Scalar or ndarray."""
        arr = np.asarray(w, dtype=complex)
        out = np.exp(self._log_derivative(arr))
        return complex(out) if arr.ndim == 0 else out

    def derivative_minus_one(self, w):
        """g' - 1 without cancellation where log g' is small."""
        arr = np.asarray(w, dtype=complex)
        out = np.expm1(self._log_derivative(arr))
        return complex(out) if arr.ndim == 0 else out

    # -- expansion at infinity -----------------------------------------------

    @cached_property
    def series_coefficients(self) -> tuple:
        """E_k with g' - 1 = sum_{k>=2} E_k w^{-k} (E_0 = 1, E_1 = 0), as floats.

        log g' = sum_k p_k w^{-k} with p_k = beta (z1^k - z4^k + z3^k - z2^k)/k
        at finite aspect and tau (x0^(k-1) - (-x0)^(k-1)) in the limit, and
        E_m = (1/m) sum_{j<=m} j p_j E_{m-j}. The prevertices come in
        opposite pairs, z3 = -z1 and z2 = -z4 = -conj z1, so p_k vanishes
        for odd k, and then so does every odd E_k: they are exactly 0. For
        even k, p_k = 2 beta (z1^k - conj z1^k)/k = 4 b Im(z1^k)/k and, in
        the limit, 2 tau x0^(k-1), both real. So the even terms alone run
        the recursion, E_2n = (1/2n) sum_{i<=n} q_i E_2n-2i with
        q_i = 2i p_2i, in Python floats.
        """
        n = SERIES_TERMS // 2
        if self.kind == "finite":
            z1 = self.poles[0]
            q = [4.0 * self._b * (z1 ** (2 * i)).imag for i in range(1, n + 1)]
        else:
            q = [4.0 * i * self.tau * self.x0 ** (2 * i - 1) for i in range(1, n + 1)]
        even = [1.0]
        for m in range(1, n + 1):
            # q_1 E_2m-2 + ... + q_m E_0
            even.append(sum(map(operator.mul, q, reversed(even))) / (2 * m))
        e = [0.0] * (SERIES_TERMS + 1)
        e[::2] = even
        return tuple(e)

    def tail_integral(self, w: complex) -> complex:
        """Integral of g'-1 from infinity to w; g(w) = w + tail_integral(w).

        Valid for |w| >= tail_radius, where the expansion converges far past
        machine precision. Only the even E_k are nonzero, so the sum
        -sum_k E_k w^(1-k)/(k-1) is a polynomial in 1/w^2, times 1/w, taken
        by Horner's rule.
        """
        w = complex(w)
        if abs(w) < 0.999 * self.tail_radius:
            raise ValueError(f"|w| = {abs(w):.3g} is inside the tail radius {self.tail_radius:.3g}")
        e = self.series_coefficients
        iw = 1.0 / w
        iw2 = iw * iw
        acc = 0j
        for k in range(2 * (SERIES_TERMS // 2), 1, -2):
            acc = acc * iw2 - e[k] / (k - 1)
        return acc * iw

    # -- branch-cut geometry ---------------------------------------------

    def slit_crossings(self, a: complex, b: complex) -> list:
        """Crossings of the segment a->b with the branch slits, in traversal order.

        Returns (t, dm) pairs: the segment meets a slit at a + t*(b - a),
        and there the branch exponent m of g' continued as principal g'
        times K**m changes by dm. Crossing the right slit rightward gives
        dm = -1, the left slit rightward +1, leftward crossings the
        opposite; so a counterclockwise circuit of z1 crosses the slit below
        it rightward and comes back scaled by 1/K, the scale of
        surface.corner_holonomy at "ur", and circuits of the prevertices in
        prevertex_ring order sum dm to -1, +1, -1, +1.

        The members without a cut, the square and the limit, have no
        slits and give []. A segment that runs along a slit and meets it
        raises ArithmeticError; one on the slit's line but clear of the
        slit has no crossing.
        """
        if not self.slits:
            return []
        dx = (b - a).real
        out = []
        for sx, hh in self.slits:
            if dx == 0.0:
                if a.real == sx:
                    lo, hi = sorted((a.imag, b.imag))
                    if lo <= hh and hi >= -hh:
                        raise ArithmeticError(f"segment {a} -> {b} runs along a branch slit")
                continue
            t = (sx - a.real) / dx
            if 0.0 <= t <= 1.0 and abs(a.imag + t * (b - a).imag) <= hh:
                # the right slit lies at sx > 0
                out.append((float(t), -1 if (dx > 0.0) == (sx > 0.0) else 1))
        # two crossings at one t leave m the same in either order
        out.sort()
        return out

    # -- integration -------------------------------------------------------

    def develop(self, path: Sequence[complex], tol: float = DEVELOP_TOL) -> np.ndarray:
        """Values of g at the nodes of a polyline anchored near infinity.

        path[0] must satisfy |path[0]| >= tail_radius; the anchor value comes
        from the tail expansion and each further node adds the integral of g'
        along the segment. Raises ValueError if any segment crosses a branch
        slit, and ArithmeticError if one runs along a slit (slit_crossings).
        """
        nodes = [complex(p) for p in path]
        if not nodes:
            raise ValueError("empty path")
        if abs(nodes[0]) < 0.999 * self.tail_radius:
            raise ValueError("path must start at or beyond the tail radius")
        out = np.empty(len(nodes), dtype=complex)
        out[0] = nodes[0] + self.tail_integral(nodes[0])
        if len(nodes) == 1:
            return out
        share = tol / (len(nodes) - 1)
        for i in range(len(nodes) - 1):
            a, b = nodes[i], nodes[i + 1]
            if self.slit_crossings(a, b):
                raise ValueError(
                    f"path segment {a} -> {b} crosses a branch slit; "
                    "route around the slits or use the tracker"
                )
            out[i + 1] = out[i] + integrate_segment(self.derivative, a, b, share)
        return out

    def develop_at(self, w: complex, tol: float = DEVELOP_TOL) -> complex:
        """g at a single point, routed radially or vertically from infinity.

        A point on a slit has no straight approach: develop raises
        ArithmeticError on the vertical route along the slit.
        """
        w = complex(w)
        if abs(w) >= self.tail_radius:
            return w + self.tail_integral(w)
        if w != 0:
            anchor = w / abs(w) * self.tail_radius
            if not self.slit_crossings(anchor, w):
                return complex(self.develop([anchor, w], tol)[-1])
        anchor = complex(w.real, abs(w.imag) + self.tail_radius + 2.0)
        return complex(self.develop([anchor, w], tol)[-1])

    def loop_integral(self, center: complex, radius: float, tol: float = DEVELOP_TOL) -> complex:
        """Counterclockwise circle integral of g', the additive monodromy of g.

        The circle must not meet a branch slit (it may enclose one).
        """
        center = complex(center)
        if radius <= 0:
            raise ValueError("radius must be positive")
        for sx, hh in self.slits:
            d = abs(sx - center.real)
            if d <= radius:
                s = math.sqrt(max(radius**2 - d**2, 0.0))
                for y in (center.imag + s, center.imag - s):
                    if abs(y) <= hh + 1e-12:
                        raise ValueError("loop circle meets a branch slit")

        def f(theta):
            u = np.exp(1j * np.asarray(theta, dtype=complex))
            return self.derivative(center + radius * u) * 1j * radius * u

        # eight equal arcs seed the first level; the length-proportional
        # tolerance share gives each arc tol/8, as eight separate calls would
        arcs = np.linspace(0.0, 2.0 * math.pi, 9)
        return integrate_segment(f, 0.0, 2.0 * math.pi, tol, points=arcs[1:-1])

    def additive_monodromy_series(self, pole: complex) -> complex:
        """2*pi*i times the residue of g' at an essential point, by series.

        Limit maps only. Writing w = pole + u, g' = exp(c/u) * exp(d/(u+e))
        and the residue is sum_n a_n c^(n+1)/(n+1)! with a_n the Taylor
        coefficients of the analytic factor.
        """
        if self.kind != "limit":
            raise ValueError("additive monodromy series applies to the limit map")
        pole = complex(pole)
        if abs(pole - self.x0) <= 1e-9:
            c, d, e = self.tau, -self.tau, 2.0 * self.x0
        elif abs(pole + self.x0) <= 1e-9:
            c, d, e = -self.tau, self.tau, -2.0 * self.x0
        else:
            raise ValueError(f"{pole} is not a singular point (have {self.poles})")
        # q(u) = d/du [d/(u+e)] = -d/(u+e)^2, expanded about u = 0
        n_terms = MONODROMY_TERMS
        q = np.array([-(d / e**2) * (k + 1) * (-1.0 / e) ** k for k in range(n_terms)])
        a = np.zeros(n_terms + 1)
        a[0] = math.exp(d / e)
        for n in range(n_terms):
            a[n + 1] = np.dot(q[: n + 1], a[n::-1]) / (n + 1)
        res = sum(a[n] * c ** (n + 1) / math.factorial(n + 1) for n in range(n_terms + 1))
        return 2j * math.pi * res

