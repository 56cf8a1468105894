"""Charts and gluings of the glued-surface family and its limit.

Finite aspect K: an outer chart (the plane minus the closed unit square
[-1,1]^2) and an open rectangle ]-1,1[ x ]-1/K,1/K[, glued edge to edge by
similitudes that match corresponding corners. Going once around a square
corner picks up the corner holonomy (a scaling by K or 1/K about the
corner), and going around a corner pair picks up the hole monodromy (a
translation). At K = inf the rectangle is gone: the outer chart's top and
bottom edges are glued to each other, a half-infinite strip hangs off each
of the left and right edges, and a spiral end (half of the universal cover
of C*) is attached along each strip edge. The embedding module builds its
charts for these pieces, and the limitset module tracks their images, from
the ids, corner coordinates and spiral seams defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .similitude import Similitude


class ChartId(Enum):
    OUTER = "outer"
    RECT = "rect"
    STRIP_LEFT = "strip_left"
    STRIP_RIGHT = "strip_right"
    SPIRAL_UL = "spiral_ul"
    SPIRAL_UR = "spiral_ur"
    SPIRAL_BL = "spiral_bl"
    SPIRAL_BR = "spiral_br"


CORNERS = ("ul", "ur", "bl", "br")

CORNER_COORD = {
    "ul": -1.0 + 1.0j,
    "ur": 1.0 + 1.0j,
    "bl": -1.0 - 1.0j,
    "br": 1.0 - 1.0j,
}

# (seam, orient): the angle of each spiral end's gluing edge seen from its
# corner, and the winding direction deeper into the sheets. At depth u from
# the seam, angle seam + orient*u, the collar (-pi/2, 0] belongs to the
# adjoining strip, sheet n's outer window is [2 pi n, 2 pi n + 3 pi/2]
# (n >= 0) and its rectangle window [2 pi n - pi/2, 2 pi n] (n >= 1).
SPIRAL_SEAM = {
    "ul": (0.0, +1.0),
    "bl": (0.0, -1.0),
    "ur": (math.pi, -1.0),
    "br": (-math.pi, +1.0),
}


@dataclass(frozen=True)
class SurfacePoint:
    """A surface point as (chart, local coordinate).

    Spiral coordinates are logarithmic: coord = ln(r) + i*theta with theta
    the unwrapped polar angle of the projection to C*.
    """

    chart: ChartId
    coord: complex


def gluing_map(K: float, side: str) -> Similitude:
    """The similitude carrying a rectangle edge onto the matching square edge.

    top z+i-i/K, bottom z-i+i/K, left Kz+K-1, right Kz-K+1; its inverse
    carries the square edge back. Only finite K has a rectangle.
    """
    if math.isinf(K):
        raise ValueError("the limit surface has no rectangle chart")
    if not K >= 1.0:
        raise ValueError(f"aspect must be >= 1, got {K}")
    if side == "top":
        return Similitude(1.0, 1j - 1j / K)
    if side == "bottom":
        return Similitude(1.0, -1j + 1j / K)
    if side == "left":
        return Similitude(K, K - 1.0)
    if side == "right":
        return Similitude(K, 1.0 - K)
    raise ValueError(f"unknown side {side!r}")


def corner_holonomy(K: float, corner: str) -> Similitude:
    """Affine change picked up by continuing outer coordinates once around a corner.

    The loop runs counterclockwise in outer coordinates. The result fixes
    the corner exactly and scales by K (ul, br) or 1/K (ur, bl); its
    inverse is the clockwise loop's. At K = 1 the corners are regular
    cone points of angle 2*pi and the holonomy degenerates to the identity.
    """
    if math.isinf(K):
        raise ValueError("limit-surface corners have infinite-order spirals, no similitude")
    if corner not in CORNERS:
        raise ValueError(f"unknown corner {corner!r}")
    top = gluing_map(K, "top")
    bottom = gluing_map(K, "bottom")
    left = gluing_map(K, "left")
    right = gluing_map(K, "right")
    return {
        "ul": left.compose(top.inverse()),
        "ur": top.compose(right.inverse()),
        "bl": bottom.compose(left.inverse()),
        "br": right.compose(bottom.inverse()),
    }[corner]


def hole_monodromy(K: float, side: str) -> Similitude:
    """Translation picked up around a corner pair (a hole of the surface).

    For the right pair, a loop that is counterclockwise in the developed
    outer picture crosses the top gluing then the bottom gluing and the
    continued coordinate gains +2i-2i/K (+2i at K = inf); the left pair
    gives the inverse translation, and so does a clockwise loop.
    """
    if not K >= 1.0:
        raise ValueError(f"aspect must be >= 1, got {K}")
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    shift = 2j if math.isinf(K) else 2j - 2j / K
    if side == "left":
        shift = -shift
    return Similitude(1.0, shift)
