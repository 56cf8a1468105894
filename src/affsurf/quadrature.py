"""Adaptive Gauss-Kronrod quadrature over segments in the complex plane.

G7/K15 pair with the classic node set; panels are bisected until the
Kronrod-Gauss discrepancy meets a length-proportional share of the
tolerance, or falls to the rounding of the panel's sum. Refinement is
level-synchronous: every panel still live at a level is evaluated in one
vectorised integrand call, so a segment costs one call per refinement
level rather than one per panel. Optional interior break points seed the
first level, which lets a caller grade the panels toward an endpoint
singularity instead of reaching it by bisection.
One GK15 level is defined once: gk15_nodes places the nodes of a set of
panels and gk15_level takes their values to the panels' (Kronrod, Gauss)
sums and the accept test. A level may hold the panels of one segment, or
the one-panel first levels of many segments stacked as (1, 15) rows, which
is how the tracker pools the first level of every chord in a round (see
tracking.lock_step). A chord whose pooled first level is refined goes on
in integrate_segment, passed the first level's values as first.
Integrands take a 1-D complex ndarray and return an array of its shape.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class QuadratureError(ArithmeticError):
    """Adaptive refinement hit its panel budget without converging."""


# QUADPACK's qk15 nodes and weights (Piessens et al., 1983) to full double
# precision: Kronrod weights cut to 15 digits sum to 2 - 6e-15, which
# biases every integral by 3e-15 of its segment's length times |f|
_K = [
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
]
GK_NODES = np.array([-x for x in _K] + [0.0] + list(reversed(_K)))

_KW = [
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
]
GK_WEIGHTS = np.array(_KW + [0.209482141084727828012999174891714] + list(reversed(_KW)))

_GW = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
]
G7_WEIGHTS = np.array(_GW + [0.417959183673469387755102040816327] + list(reversed(_GW)))


# Kronrod and embedded Gauss weights as the columns of one 15x2 matrix, so
# a level's panel sums are a single matrix product
_PAIR_WEIGHTS = np.zeros((15, 2))
_PAIR_WEIGHTS[:, 0] = GK_WEIGHTS
_PAIR_WEIGHTS[1::2, 1] = G7_WEIGHTS

# a discrepancy at most this share of a panel's integral of |f| is rounding
_ROUNDOFF = 50.0 * np.finfo(float).eps

# panel bisections after which integrate_segment gives up
MAX_PANELS = 16384


def gk15_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(half-widths, nodes) of the GK15 panels [lo, hi], one row of 15 nodes a panel."""
    h = 0.5 * (hi - lo)
    return h, (lo + h)[:, None] + h[:, None] * GK_NODES


def gk15_level(vals: np.ndarray, h: np.ndarray, tol, total) -> tuple[np.ndarray, ...]:
    """((Kronrod, Gauss) sums, discrepancy, live) of GK15 panels from their node values.

    vals holds each panel's 15 values along its last axis and h the
    panels' half-widths in the shape of the rest; tol and total are the
    tolerance and length of each panel's segment, scalars or arrays in
    h's shape. live marks the panels the accept test sends on to
    bisection: Kronrod-Gauss discrepancy above max(tol*length/total,
    1e-4*tol), above the round-off floor 50*eps*(integral of |f| over the
    panel), and length above 1e-15*total. The floor is QUADPACK's resabs
    test (Piessens et al., QUADPACK, 1983, qk15): a tolerance below the
    rounding of a panel's sum cannot be met by bisection, which would only
    multiply the panels until the 1e-4*tol floor or the panel budget stops
    it. It is taken only when some panel fails the other tests, so a level
    whose panels all pass them, as almost every pooled first level does,
    pays nothing for it.

    The sums are a matrix product over the last two axes: the panels of
    one segment's level, shape (n, 15), go through BLAS gemm, while a stack
    of one-panel levels, shape (m, 1, 15), takes each row on its own and
    so rounds it as that segment alone would.
    """
    sums = (vals @ _PAIR_WEIGHTS) * h[..., None]
    err = np.abs(sums[..., 0] - sums[..., 1])
    length = 2.0 * np.abs(h)
    # the absolute floor keeps short panels near an endpoint from being
    # starved by the length-proportional share; with <= MAX_PANELS panels
    # the accepted error still sums to O(tol)
    live = (err > np.maximum((tol / total) * length, 1e-4 * tol)) & (length > 1e-15 * total)
    # the tracker calls this once a round on a few panels, where
    # count_nonzero takes half the time of live.any()
    if np.count_nonzero(live):
        live &= err > _ROUNDOFF * (np.abs(vals) @ GK_WEIGHTS) * np.abs(h)
    return sums, err, live


def integrate_segment(
    f: Callable,
    a: complex,
    b: complex,
    tol: float = 1e-11,
    points: Sequence[complex] = (),
    first: np.ndarray | None = None,
) -> complex:
    """Integral of f along the straight segment from a to b.

    points are interior break points of the segment, in any order; like the
    points of scipy.integrate.quad they split the first level into panels.
    A panel is accepted by gk15_level's test; every other panel is
    bisected, and each level evaluates f once on the nodes of all its live
    panels. A caller that already holds f on the first level's nodes passes
    those values as first, and f is then evaluated from the second level
    on. Raises QuadratureError after more than MAX_PANELS bisections.
    """
    a, b = complex(a), complex(b)
    total = abs(b - a)
    if total == 0.0:
        return 0j
    edges = np.array([a, b])
    if len(points):
        points = np.asarray(points, dtype=complex)
        t = (points - a) / (b - a)
        if not np.all((0.0 < t.real) & (t.real < 1.0) & (np.abs(t.imag) <= 1e-9)):
            raise ValueError("break points must lie strictly inside the segment")
        edges = np.concatenate(([a], points[np.argsort(t.real, kind="stable")], [b]))
    lo, hi = edges[:-1], edges[1:]
    acc = 0j
    splits = 0
    while True:
        h, nodes = gk15_nodes(lo, hi)
        vals = f(nodes.ravel()) if first is None else first
        first = None
        sums, err, live = gk15_level(np.asarray(vals, dtype=complex).reshape(nodes.shape), h, tol, total)
        if not live.any():
            return complex(acc + sums[:, 0].sum())
        acc += sums[~live, 0].sum()
        lo, hi = lo[live], hi[live]
        splits += lo.size
        if splits > MAX_PANELS:
            raise QuadratureError(
                f"no convergence after {MAX_PANELS} panel splits "
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

