"""Leaf-space charts across the whole family.

The disjoint union of all the surfaces, one leaf per aspect t = 1/K plus
the limit leaf t = 0, carries charts defined on open subsets of
[0,1] x C. Each chart is described here by the inverse map psi: it sends
a leaf coordinate (t, z) to a concrete surface point of the aspect-1/t
member. Four cases cover the union: the outer plane, a vertical strip
straddling the identified edge, a half-strip with its corner flaps, and
a ball lifted into a spiral end. Each leaf of a chart splits into
regions, and each region carries one piece, a similitude into one chart
of the member: one classifier and one table of pieces give membership,
evaluation, inversion and disk images alike. Criterion 08 in `checks`
measures them through two helpers: `transition`, the coordinate change
between two charts on one leaf, and `disk_image`, the image of a closed
disk on one leaf.

Spiral leaf coordinates are points of the projection plane C*; the chart
carries the branch (a base log-coordinate and a ball radius), so the
winding never needs unwrapping at call sites.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .surface import CORNER_COORD, SPIRAL_SEAM, ChartId, SurfacePoint

# strip adjoining each spiral and the sign e of the edge it hangs on:
# strip coordinate s = w + i*e for a projection value w at the seam
_STRIP_EDGE = {c: ("left" if z.real < 0 else "right", z.imag) for c, z in CORNER_COORD.items()}

# spiral reached through each corner flap of a half strip
_FLAP_CORNER = {edge: corner for corner, edge in _STRIP_EDGE.items()}


def _window(corner: str, theta: float) -> Optional[Tuple[str, int]]:
    """Classify an unwrapped angle into a sheet window.

    Measured as depth u from the seam of surface.SPIRAL_SEAM, the sheets
    tile u > -pi/2: the outer windows land in the outer chart of the
    finite surfaces, the rectangle windows in the rectangle. The collar
    below the seam belongs to the adjoining strip and is treated as the
    n = 0 rectangle window, which the strip formulas agree with through
    the edge gluing. None beyond the cover.
    """
    seam, orient = SPIRAL_SEAM[corner]
    u = orient * (theta - seam)
    if u <= -0.5 * math.pi:
        return None
    if u <= 0.0:
        return ("rect", 0)
    n = int(math.floor(u / (2.0 * math.pi)))
    frac = u - 2.0 * math.pi * n
    if frac <= 1.5 * math.pi:
        return ("outer", n)
    return ("rect", n + 1)


@dataclass(frozen=True)
class EmbedChart:
    """One inverse chart psi of the leaf space.

    case 1: the plane outside the closed square, same coordinate on
        every leaf.
    case 2: the vertical strip |Re z| < 1 running across the identified
        edge; the rectangle occupies the band of height 2/K below
        Im z = 1.
    case 3: a half strip and its corner flaps; `strip` picks the side.
    case 4: a ball in the projection plane lifted to a spiral end;
        `corner` picks the end, `base_log` fixes the branch, `radius`
        the ball.
    """

    case: int
    strip: Optional[str] = None
    corner: Optional[str] = None
    base_log: complex = 0j
    radius: float = 0.0

    @property
    def proj(self) -> complex:
        """Projection of the case-4 base point to C*."""
        return cmath.exp(self.base_log)

    def contains(self, t: float, z: complex) -> bool:
        """Membership of (t, z) in the chart's leaf-space domain."""
        return _region(self, t, z) is not None


def outer_chart() -> EmbedChart:
    return EmbedChart(case=1)


def edge_strip_chart() -> EmbedChart:
    return EmbedChart(case=2)


def half_strip_chart(strip: str) -> EmbedChart:
    if strip not in ("left", "right"):
        raise ValueError("strip must be 'left' or 'right'")
    return EmbedChart(case=3, strip=strip)


def spiral_ball_chart(corner: str, base_log: complex, radius: float) -> EmbedChart:
    """Ball chart on a spiral end.

    base_log = ln r + i theta names a point of the end's universal-cover
    half; the ball of the given radius around its projection must avoid
    the puncture, which also keeps the branch single-valued on it.
    """
    if corner not in SPIRAL_SEAM:
        raise ValueError(f"unknown spiral corner {corner!r}")
    proj = cmath.exp(base_log)
    if not 0.0 < radius < abs(proj):
        raise ValueError("radius must be positive and smaller than |base|")
    if _window(corner, base_log.imag) is None:
        raise ValueError(f"angle {base_log.imag:.6g} beyond the {corner} cover")
    return EmbedChart(case=4, corner=corner, base_log=base_log, radius=radius)


@dataclass(frozen=True)
class VirtualPointRep:
    """A limit-surface point presented through one of the charts."""

    a: complex
    chart: EmbedChart

    def __post_init__(self) -> None:
        if not self.chart.contains(0.0, self.a):
            raise ValueError("base point not in the chart's limit-leaf domain")

    def limit_point(self) -> SurfacePoint:
        return embed_eval(self.chart, 0.0, self.a)


def _region(chart: EmbedChart, t: float, z: complex, r: float = 0.0):
    """The region of the chart's t-leaf that holds the closed disk B(z, r).

    r = 0 classifies the point z. None when the disk leaves the chart's
    domain or meets two regions; a point on a shared edge goes to the
    region tested first. The regions are "outer" (case 1); "above", "rect"
    and "below" the rectangle band 1 - 2t < Im z < 1 (case 2); "outer"
    (Re z <= 0 for the left strip), "strip" (|Im z| <= 1) and the corner
    flaps ("flap", +-1) (case 3); the sheet window (kind, n) of the
    angle (case 4).
    """
    if not 0.0 <= t <= 1.0:
        return None
    x, y = z.real, z.imag
    if chart.case == 1:
        return "outer" if max(abs(x), abs(y)) - r > 1.0 else None
    if chart.case == 2:
        if abs(x) + r >= 1.0:
            return None
        if y - r >= 1.0:
            return "above"
        if y + r <= 1.0 - 2.0 * t:
            return "below"
        if 1.0 - 2.0 * t < y - r and y + r < 1.0:
            return "rect"
        return None
    if chart.case == 3:
        # mirror the right strip onto the left: w -> -conj(w) is a
        # symmetry of every member, so only signs on real parts flip
        xs = x if chart.strip == "left" else -x
        if t > 0.0 and xs + r >= 2.0 / t:
            return None
        if xs + r <= 0.0:
            return "outer" if abs(y) + r < 1.0 else None
        if xs - r >= 0.0 and abs(y) + r <= 1.0:
            return "strip"
        if xs - r > 0.0 and abs(y) - r >= 1.0:
            return ("flap", 1.0 if y > 0.0 else -1.0)
        return None
    if abs(z - chart.proj) + r >= chart.radius:
        return None
    # inside the ball the angle moves by less than pi/2 around the base,
    # so the principal log of the ratio carries the branch; the window
    # must hold on the disk's whole angular span
    theta = chart.base_log.imag + cmath.log(z / chart.proj).imag
    span = math.asin(min(1.0, r / abs(z)))
    windows = {_window(chart.corner, theta + d) for d in (-span, 0.0, span)}
    if len(windows) > 1 or None in windows:
        return None
    ((kind, n),) = windows
    if kind == "rect" and n >= 1 and t > 0.0 and not abs(z) + r < 2.0 * (1.0 / t) ** n:
        return None
    return (kind, n)


class _Piece(NamedTuple):
    """z -> a*z + b into the surface chart `target`.

    On the limit leaf's spiral charts, whose coordinates are
    logarithmic, the piece then takes w -> shift + Log w.
    """

    target: ChartId
    a: complex
    b: complex
    shift: Optional[complex] = None

    def __call__(self, z: complex) -> SurfacePoint:
        w = self.a * z + self.b
        if self.shift is not None:
            w = self.shift + cmath.log(w)
        return SurfacePoint(self.target, w)

    def solve(self, coord: complex) -> Optional[complex]:
        """The z sent to coord, None when coord is off the branch of Log."""
        if self.shift is not None:
            d = coord - self.shift
            if abs(d.imag) >= math.pi:
                return None
            coord = cmath.exp(d)
        return (coord - self.b) / self.a


def _piece(chart: EmbedChart, t: float, region) -> _Piece:
    """The formula of one region of the chart's t-leaf."""
    if chart.case == 1:
        return _Piece(ChartId.OUTER, 1.0, 0j)
    if chart.case == 2:
        # the band is the rectangle; below it the strip continues in the
        # outer chart across the identified bottom edge
        if region == "above":
            return _Piece(ChartId.OUTER, 1.0, 0j)
        if region == "rect":
            return _Piece(ChartId.RECT, 1.0, 1j * t - 1j)
        return _Piece(ChartId.OUTER, 1.0, 2j * t - 2j)
    if chart.case == 3:
        s = 1.0 if chart.strip == "left" else -1.0
        if region == "outer":
            return _Piece(ChartId.OUTER, 1.0, complex(-s))
        if region == "strip":
            if t == 0.0:
                return _Piece(ChartId("strip_" + chart.strip), 1.0, 0j)
            return _Piece(ChartId.RECT, t, complex(-s))
        e = region[1]
        if t == 0.0:
            corner = _FLAP_CORNER[chart.strip, e]
            return _Piece(ChartId("spiral_" + corner), 1.0, complex(0.0, -e), 0j)
        return _Piece(ChartId.OUTER, t, complex(-s, e) - 1j * e * t)
    kind, n = region
    if t == 0.0:
        if region == ("rect", 0):
            strip, e = _STRIP_EDGE[chart.corner]
            return _Piece(ChartId("strip_" + strip), 1.0, complex(0.0, e))
        return _Piece(ChartId("spiral_" + chart.corner), 1.0 / chart.proj, 0j, chart.base_log)
    # sheet n shrinks by K^(n+1) onto the corner, in the chart of its window
    c = CORNER_COORD[chart.corner]
    if kind == "outer":
        return _Piece(ChartId.OUTER, t ** (n + 1), c)
    return _Piece(ChartId.RECT, t ** (n + 1), complex(c.real, c.imag * t))


def embed_eval(chart: EmbedChart, t: float, z: complex) -> SurfacePoint:
    """The surface point of the aspect-1/t member at leaf coordinate z.

    t = 0 addresses the limit member. Points on shared edges are
    returned in the closure of whichever chart their region's piece names.
    """
    region = _region(chart, t, z)
    if region is None:
        raise ValueError("leaf coordinate outside the chart domain")
    return _piece(chart, t, region)(z)


# the regions of cases 1-3; a spiral ball lists the windows it meets
_REGIONS = {
    1: ("outer",),
    2: ("above", "rect", "below"),
    3: ("outer", "strip", ("flap", 1.0), ("flap", -1.0)),
}


def embed_invert(chart: EmbedChart, t: float, p: SurfacePoint) -> Optional[complex]:
    """Leaf coordinate of a surface point, or None when out of range.

    Inverts embed_eval(chart, t, .) at the same leaf: each piece that
    lands in p's chart is solved, and its z is kept only when z lies in
    that piece's region. Returning None is the normal signal that the
    point lives outside this chart.
    """
    if chart.case == 4:
        # the ball's angle span is under pi, so samples a quarter turn
        # apart meet every window it reaches
        th = chart.base_log.imag
        windows = (_window(chart.corner, th + 0.25 * math.pi * k) for k in range(-2, 3))
        regions = [w for w in dict.fromkeys(windows) if w is not None]
    else:
        regions = _REGIONS[chart.case]
    for region in regions:
        piece = _piece(chart, t, region)
        if piece.target is p.chart:
            z = piece.solve(p.coord)
            if z is not None and _region(chart, t, z) == region:
                return z
    return None


def transition(chart_a: EmbedChart, chart_b: EmbedChart, t: float, z: complex) -> Optional[complex]:
    """chart_b's coordinate of chart_a's point z on the t-leaf, None off the overlap."""
    region = _region(chart_a, t, z)
    if region is None:
        return None
    return embed_invert(chart_b, t, _piece(chart_a, t, region)(z))


def disk_image(chart: EmbedChart, K: float, a: complex, r: float) -> Tuple[ChartId, complex, float]:
    """Image of the closed disk B(a, r) on the aspect-K leaf: chart, centre, radius.

    Each piece is a similitude on its region, so a disk that stays
    inside one region maps to an exact disk; straddling disks are
    rejected rather than approximated.
    """
    t = 1.0 / K
    region = _region(chart, t, a, r)
    if region is None:
        raise ValueError("disk leaves the chart or straddles two regions; shrink the radius")
    piece = _piece(chart, t, region)
    return (piece.target, piece(a).coord, r * abs(piece.a))
