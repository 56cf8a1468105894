"""Adaptive Gauss-Kronrod quadrature over segments in the complex plane.

G7/K15 pair with the classic node set; panels are bisected until the
Kronrod-Gauss discrepancy meets a length-proportional share of the
tolerance. Refinement is level-synchronous: every panel still live at a
level is evaluated in one vectorised integrand call, so a segment costs
one call per refinement level rather than one per panel. Optional interior
break points seed the first level, which lets a caller grade the panels
toward an endpoint singularity instead of reaching it by bisection.
Without break points the first level is one panel; its accept test runs on
Python scalars, so a segment that GK15 accepts whole skips the level
bookkeeping, while its sums come from the same array arithmetic as every
other level and so keep their rounding. Nearly every tracker chord is such
a segment.
Integrands take a 1-D complex ndarray and return an array of its shape.
The level loop itself is the generator segment_levels, which yields each
level's nodes and takes their values; integrate_segment drives it with one
integrand, and the tracker drives it with values it evaluates for several
chords at once.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np


class QuadratureError(ArithmeticError):
    """Adaptive refinement hit its panel budget without converging."""


_K = [
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
]
GK_NODES = np.array([-x for x in _K] + [0.0] + list(reversed(_K)))

_KW = [
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
]
GK_WEIGHTS = np.array(_KW + [0.209482141084728] + list(reversed(_KW)))

_GW = [0.129484966168870, 0.279705391489277, 0.381830050505119]
G7_WEIGHTS = np.array(_GW + [0.417959183673469] + list(reversed(_GW)))


# Kronrod and embedded Gauss weights as the columns of one 15x2 matrix, so
# a level's panel sums are a single matrix product
_PAIR_WEIGHTS = np.zeros((15, 2))
_PAIR_WEIGHTS[:, 0] = GK_WEIGHTS
_PAIR_WEIGHTS[1::2, 1] = G7_WEIGHTS


def integrate_segment(
    f: Callable,
    a: complex,
    b: complex,
    tol: float = 1e-11,
    max_panels: int = 16384,
    points: Sequence[complex] = (),
) -> complex:
    """Integral of f along the straight segment from a to b.

    points are interior break points of the segment, in any order; like the
    points of scipy.integrate.quad they split the first level into panels.
    A panel is accepted when its Kronrod-Gauss discrepancy is at most
    max(tol*len/total, 1e-4*tol) or its length is at most 1e-15*total;
    every other panel is bisected, and each level evaluates f once on the
    nodes of all its live panels. Raises QuadratureError after more than
    max_panels bisections.
    """
    levels = segment_levels(a, b, tol, max_panels, points)
    try:
        nodes = next(levels)
        while True:
            nodes = levels.send(f(nodes))
    except StopIteration as done:
        return done.value


def segment_levels(
    a: complex,
    b: complex,
    tol: float = 1e-11,
    max_panels: int = 16384,
    points: Sequence[complex] = (),
) -> Generator[np.ndarray, np.ndarray, complex]:
    """The refinement of integrate_segment, with the integrand left to the caller.

    Yields each level's nodes as a 1-D complex array, takes the integrand's
    values on them (any array of that size) and returns the integral, so a
    caller can evaluate the nodes of several segments in one call.
    """
    a, b = complex(a), complex(b)
    total = abs(b - a)
    if total == 0.0:
        return 0j
    edges = [a, b]
    if len(points):
        t = [(complex(p) - a) / (b - a) for p in points]
        if any(not 0.0 < u.real < 1.0 or abs(u.imag) > 1e-9 for u in t):
            raise ValueError("break points must lie strictly inside the segment")
        order = sorted(range(len(t)), key=lambda i: t[i].real)
        edges = [a] + [complex(points[i]) for i in order] + [b]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    acc = 0j
    splits = 0
    # the absolute floor keeps short panels near an endpoint from being
    # starved by the length-proportional share; with <= max_panels panels
    # the accepted error still sums to O(tol)
    floor = 1e-4 * tol
    one_panel = len(edges) == 2
    while True:
        # half-widths and (Kronrod, Gauss) sums of the panels [lo, hi]
        h = 0.5 * (hi - lo)
        hc = h[:, None]
        nodes = (lo + h)[:, None] + hc * GK_NODES
        vals = yield nodes.ravel()
        sums = (np.asarray(vals, dtype=complex).reshape(nodes.shape) @ _PAIR_WEIGHTS) * hc
        if one_panel:
            # one first panel: its accept test on Python scalars, while its
            # sums come from the array arithmetic every level uses (a scalar
            # complex multiply can round differently); a rejected panel
            # takes the level loop's accept test, panel budget and split
            # like any other
            one_panel = False
            kronrod, gauss = sums[0].tolist()
            err, length = abs(kronrod - gauss), 2.0 * abs(complex(h[0]))
            if not (err > max((tol / total) * length, floor) and length > 1e-15 * total):
                return acc + kronrod
        err = np.abs(sums[:, 0] - sums[:, 1])
        length = 2.0 * np.abs(h)
        live = (err > np.maximum((tol / total) * length, floor)) & (length > 1e-15 * total)
        if not live.any():
            return complex(acc + sums[:, 0].sum())
        acc += sums[~live, 0].sum()
        lo, hi = lo[live], hi[live]
        splits += lo.size
        if splits > max_panels:
            raise QuadratureError(
                f"no convergence after {max_panels} panel splits "
                f"(err {err[live].max():.2e}, tol {tol:.2e})"
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))


def integrate_polyline(f: Callable, nodes: Sequence[complex], tol: float = 1e-11) -> complex:
    segs = [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
    if not segs:
        return 0j
    share = tol / len(segs)
    return sum(integrate_segment(f, a, b, share) for a, b in segs)


def segment_slit_crossing(
    a: complex,
    b: complex,
    slit_x: float,
    half_height: float,
) -> Optional[float]:
    """Parameter t in [0,1] where segment a->b meets the closed vertical slit
    {Re = slit_x, |Im| <= half_height}, or None. A segment running along the
    slit's line and meeting the slit counts as a crossing at its start.
    """
    dx = (b - a).real
    if dx == 0.0:
        if a.real == slit_x:
            lo, hi = sorted((a.imag, b.imag))
            if lo <= half_height and hi >= -half_height:
                return 0.0
        return None
    t = (slit_x - a.real) / dx
    if 0.0 <= t <= 1.0:
        y = a.imag + t * (b - a).imag
        if abs(y) <= half_height:
            return float(t)
    return None
