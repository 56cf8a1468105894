"""Boundary images and the limit curve configuration.

Everything here lives in the uniformized plane. For a finite aspect the
glued rectangle occupies a region whose boundary is the preimage of the
square boundary under the developing map; it is assembled from eight
tracked half-side curves that start at its axis crossings, of which the
reflections mirror the right and upper ones to the left and lower, and
meet at the four prevertices. The eight corner approaches run in lock
step (tracking.lock_step): each round makes one derivative call for all
live approaches. Every point is bit-identical to tracking the approach
alone, because the derivative is element-wise and a round whose pooled
call meets the pole clearance is evaluated request by request. An
approach runs in stages, each from developed distance rho to rho/4. The
stages are alike on their shrinking scales, so each stage after the first
starts at the step in s its previous stage had grown to, as an integrator
restarts (Hairer, Norsett & Wanner, Solving ODEs I, II.4): a K = 1e6
boundary takes 352 accepted steps, not the 804 of a ramp up from 0.02 in
every stage, at the same largest deviation from a track on an eight times
smaller step cap. The limit
cloud runs its four mouth curves and the rays of every spiral stop in
lock step the same way; only the bridges between stops run one at a
time, since each starts where the previous one ended, from one solved
real-axis crossing or its mirror. A bridge keeps only its end point,
which the Newton corrector pins to the tracking tolerance at any step
schedule, so its first step is a quarter of its arc rather than a small
one that the step growth must ramp up: the end is the same to about
1e-12, in a quarter of the steps.
In the limit the prevertex pairs have merged and the boundary
configuration consists of the two strip mouth curves, the seam rays
between strips and spiral sheets, the flank rays bounding each spiral
sheet, the glued-edge segment, and the two singular points that
everything accumulates on. Spiral stops are placed by depth from the
seams of surface.SPIRAL_SEAM, so mirror corners and the embedding
module's spiral charts number the sheets alike.
Clouds are resampled to uniform arc-length spacing so that Hausdorff
distances between them are meaningful at that resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Sequence, Tuple

import numpy as np

from .develop import DevelopingMap
from .surface import CORNER_COORD, SPIRAL_SEAM
from .solver import LimitEstimate, SolveResult
from .tracking import arc_target, level_curve_track, lock_step, segment_target, track_level_curve

# depth of the limit strips kept explicitly: the flank rays stop at
# STRIP_DEPTH + 1, and limit point files record the cutoff in their
# truncation header
STRIP_DEPTH = 40.0


def resample_curve(points: np.ndarray, spacing: float) -> np.ndarray:
    """Piecewise-linear resampling to uniform arc length."""
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 2:
        return pts.copy()
    seg = np.abs(np.diff(pts))
    arc = np.concatenate(([0.0], np.cumsum(seg)))
    total = arc[-1]
    if total == 0.0:
        return pts[:1].copy()
    n = max(2, int(math.ceil(total / spacing)) + 1)
    grid = np.linspace(0.0, total, n)
    return np.interp(grid, arc, pts.real) + 1j * np.interp(grid, arc, pts.imag)


@dataclass
class CurveCloud:
    """Named curve pieces plus isolated points, all in one plane."""

    pieces: Dict[str, np.ndarray] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    # winding depth from the seam of each spiral piece and stop note
    depths: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, points: np.ndarray, note: str = "") -> None:
        self.pieces[name] = np.asarray(points, dtype=complex)
        if note:
            self.notes[name] = note

    def truncated(self, theta_max: float) -> "CurveCloud":
        """This cloud without the pieces and notes deeper than theta_max.

        On a limit cloud this is the cloud limit_image_cloud tracks at
        that theta_max: the bridges lay the stops in order of depth, so
        the shallower ones do not depend on how deep the walk goes.
        Pieces without a depth are kept.
        """
        keep = lambda name: _within_depth(self.depths.get(name, 0.0), theta_max)
        return CurveCloud(
            {k: v for k, v in self.pieces.items() if keep(k)},
            {k: v for k, v in self.notes.items() if keep(k)},
            {k: v for k, v in self.depths.items() if keep(k)},
        )

    @property
    def incomplete(self) -> Dict[str, str]:
        """Notes of tracks that stopped short: partial pieces, unreached rays."""
        return {k: v for k, v in self.notes.items() if v.startswith(("partial:", "unreached:"))}

    @property
    def points(self) -> np.ndarray:
        if not self.pieces:
            return np.empty(0, dtype=complex)
        return np.concatenate([self.pieces[k] for k in sorted(self.pieces)])


# query points per block of the nearest-neighbour pass, and the x-rank
# neighbours on each side whose distances bound a query's nearest one
_NN_BLOCK = 64
_NN_RANK_WINDOW = 4


def _farthest_nearest_sq(qx, qy, tx, ty, slack: float) -> float:
    """max over queries of min over targets of dx*dx + dy*dy.

    Exact: the minimum is over every target that can attain it. The
    targets are sorted by x; each query's distance to its x-rank
    neighbours bounds its nearest distance from above. Queries go in
    x-ordered blocks, each compared with the targets inside its x-slice
    and y-box widened by the block's largest bound. Blocks run in order
    of that bound, and the pass stops once no remaining block can raise
    the maximum found so far. slack widens the boxes by more than the
    rounding of the bound's square root and of the box edges, a few ulp
    of the largest coordinate.
    """
    order = np.argsort(tx, kind="stable")
    tx, ty = tx[order], ty[order]
    pos = np.searchsorted(tx, qx)
    near = np.clip(pos[:, None] + np.arange(-_NN_RANK_WINDOW, _NN_RANK_WINDOW), 0, len(tx) - 1)
    bound = ((tx[near] - qx[:, None]) ** 2 + (ty[near] - qy[:, None]) ** 2).min(axis=1)
    order = np.argsort(qx, kind="stable")
    qx, qy, bound = qx[order], qy[order], bound[order]
    starts = np.arange(0, len(qx), _NN_BLOCK)
    block_bound = np.maximum.reduceat(bound, starts)
    best = -1.0
    for i in np.argsort(-block_bound, kind="stable"):
        if block_bound[i] <= best:
            break
        block = slice(starts[i], starts[i] + _NN_BLOCK)
        # only queries whose bound exceeds the maximum so far can raise it
        open_ = bound[block] > best
        bx, by = qx[block][open_], qy[block][open_]
        pad = math.sqrt(block_bound[i]) + slack
        lo = np.searchsorted(tx, bx[0] - pad, side="left")
        hi = np.searchsorted(tx, bx[-1] + pad, side="right")
        cx, cy = tx[lo:hi], ty[lo:hi]
        inside = (cy >= by.min() - pad) & (cy <= by.max() + pad)
        cx, cy = cx[inside], cy[inside]
        d2 = (cx - bx[:, None]) ** 2 + (cy - by[:, None]) ** 2
        best = max(best, float(d2.min(axis=1).max()))
    return best


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two planar point sets.

    Squared distances are compared as dx*dx + dy*dy and the square root
    is taken once, the arithmetic of a k-d tree query, so the value is
    the same float a scipy.spatial.cKDTree query gives.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty point set")
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
    coords = np.concatenate((ax, ay, bx, by))
    if not np.all(np.isfinite(coords)):
        raise ValueError("point sets must be finite, found nan or inf")
    slack = 16.0 * np.finfo(float).eps * float(np.abs(coords).max())
    d2 = max(_farthest_nearest_sq(ax, ay, bx, by, slack), _farthest_nearest_sq(bx, by, ax, ay, slack))
    return float(np.sqrt(d2))


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brent(
    f, a: float, b: float, xtol: float, fa: Optional[float] = None, fb: Optional[float] = None
) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    Follows scipy.optimize.brentq (rtol 4 eps, 100 iterations) step for
    step, so roots and the number of calls to f are the same as with it.
    fa and fb are f(a) and f(b) where the caller already has them; each
    one given saves a call. A bracket without a sign change, a NaN value
    of f, or no convergence raises ArithmeticError naming the bracket.
    """
    bracket = f"[{a!r}, {b!r}]"

    def value(x: float, fx: Optional[float] = None) -> float:
        if fx is None:
            fx = f(x)
        if math.isnan(fx):
            raise ArithmeticError(f"Brent bracket {bracket}: f({x!r}) is nan")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ArithmeticError(f"Brent bracket {bracket}: no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation; where C would divide
                # by zero the trial step is infinite, so it bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise ArithmeticError(f"Brent bracket {bracket}: no convergence in {_BRENT_MAXITER} iterations")


def _axis_anchor_real(dev: DevelopingMap) -> Tuple[float, complex]:
    """Right real-axis crossing of the boundary, g(u) = 1, and g(u); the
    left is -u.

    The inner bracket endpoint is probed inward by halving: at the limit
    kind the derivative grows like exp(tau/distance) toward the singular
    point, so the endpoint must stay where evaluation is finite. g drops
    to -infinity fast enough that a moderate distance already brackets.
    An ArithmeticError there (pole clearance, panel budget, overflow) ends
    the search unbracketed; any other exception propagates.
    """
    base = dev.poles[0].real
    # g at every u tried: _brent returns one of them
    values = {}

    def f(u: float) -> float:
        values[u] = g = complex(dev.develop_at(complex(u)))
        return g.real - 1.0

    hi = 0.95 * dev.tail_radius
    fhi = f(hi)
    delta = 0.5
    for _ in range(40):
        lo = base + delta
        try:
            flo = f(lo)
        except ArithmeticError:
            raise ArithmeticError(
                f"boundary axis crossing not bracketed before the singular scale at delta={delta:.3g}"
            )
        if flo * fhi < 0.0:
            break
        delta *= 0.5
    else:
        raise ArithmeticError("no sign change toward the singular point")
    u = _brent(f, lo, hi, 1e-13, flo, fhi)
    return u, values[u]


def _axis_anchor_imag(dev: DevelopingMap) -> Tuple[float, complex]:
    """Upper imaginary-axis crossing, Im g(i v) = 1, and g(i v); the lower
    is -i v.

    The crossing height sinks like 1.44/K as the top edge flattens onto
    the real axis, so the inner bracket endpoint is 1e-9 up to K = 1e7 and
    1e-2/K beyond. Im g(i v) dips below the edge height near v = 0 by only
    about 0.05/K, and from about K = 1e11 the errors of the prevertex solve
    and of develop_at, 1e-11 to 1e-12 at the inner endpoint, are larger
    than the dip. The bracket still changes sign, but the root found is
    where those errors cross zero: v*K reads 1.43 at K = 1e10, 5.3 at 1e11,
    25 at 1e12 and 3.5e4 at 1e16. Its developed value still lies on the
    top edge to within those errors, so it remains a seed on the boundary.
    """
    values = {}

    def f(v: float) -> float:
        values[v] = g = complex(dev.develop_at(complex(0.0, v)))
        return g.imag - 1.0

    v = _brent(f, min(1e-9, 1e-2 / dev.K), 0.95 * dev.tail_radius, 1e-13)
    return v, values[v]


def _track_toward_corner(
    dev: DevelopingMap,
    corner: complex,
    w0: complex,
    g0: complex,
    branch0: int,
    corner_clip: float,
    quad_tol: float,
) -> Generator[tuple, tuple, Tuple[np.ndarray, str]]:
    """Follow the square side radially into a corner value.

    The curve winds into the prevertex on a shrinking scale, so the
    approach runs in stages with the step cap tied to the current
    distance from the nearest prevertex. The stages are alike on their
    shrinking scales, so each one after the first starts at the step in s
    its previous stage had grown to (TrackResult.next_step) instead of
    ramping up again from the first stage's 0.02. The chain ends at
    corner_clip, or before a stage whose end would lie within 2 ulp of the
    corner's coordinates, where float64 barely tells its points from the
    corner (the top and bottom sides, clipped at corner_clip/K, reach that
    floor from about K = 1e13). A tracking.lock_step track that returns the
    joined stage curves and the reason the approach stalled ("" when it
    reached its clip or the floor).
    """
    rho = abs(g0 - corner)
    direction = (g0 - corner) / rho
    # no stage ends within 2 ulp of the corner's coordinates, where its
    # target would be rounding noise
    floor = 2.0 * math.ulp(max(abs(corner.real), abs(corner.imag)))
    pieces = []
    w, g, m = w0, g0, branch0
    first_step = 0.02
    while rho > corner_clip:
        rho_next = max(corner_clip, rho / 4.0)
        if rho_next <= floor:
            break
        p, dp = segment_target(corner + rho * direction, corner + rho_next * direction)
        near = min(abs(w - z) for z in dev.poles)
        step = max(2e-4, 0.2 * near)
        # the derivative collapses with the developed scale near the
        # prevertex, so the on-curve tolerance must shrink with it or
        # the Newton correction goes slack in w
        tol = float(np.clip(1e-3 * rho_next, 1e-13, 1e-10))
        r = yield from level_curve_track(
            dev, p, dp, w, g0=g, branch0=m, max_step=step, tol=tol,
            quad_tol=min(quad_tol, 0.1 * tol),
            first_step=first_step, max_steps=4000,
        )
        pieces.append(r.w)
        w, g, m = complex(r.w[-1]), complex(r.g[-1]), int(r.branch[-1])
        first_step = r.next_step
        if not r.completed:
            return np.concatenate(pieces), r.reason
        rho = rho_next
    return (np.concatenate(pieces) if pieces else np.array([w0])), ""


def rectangle_image_boundary(
    dev: DevelopingMap,
    spacing: float = 0.004,
    corner_clip: float = 1e-3,
    quad_tol: float = 1e-12,
) -> CurveCloud:
    """Boundary of the glued rectangle's image, as a resampled cloud.

    Eight half-side tracks start on the coordinate axes, where symmetry
    puts the boundary's axis crossings, and run into the four corner
    values in lock step. Only the right and upper crossings are solved;
    the reflections mirror them to the left and lower ones, and at the
    square, where g is the identity, they are 1 and i. The prevertices
    themselves are appended since the tracked curves end corner_clip
    short of them (in developed distance).
    """
    if dev.kind != "finite":
        raise ValueError("finite-aspect map required; use limit_image_cloud for the limit")
    cloud = CurveCloud()
    # the solves hand back g at the right and upper crossings; the mirrors,
    # and the square's crossings, are developed below
    if dev.slits:
        (u, g_right), (v, g_top) = _axis_anchor_real(dev), _axis_anchor_imag(dev)
    else:
        u, g_right, v, g_top = 1.0, None, 1.0, None
    # each side's axis crossing, g there where known, and the corners of
    # CORNER_COORD its halves run into
    sides = {
        "right": (complex(u), g_right, ("ur", "br")),
        "left": (complex(-u), None, ("ul", "bl")),
        "top": (complex(0, v), g_top, ("ur", "ul")),
        "bottom": (complex(0, -v), None, ("br", "bl")),
    }
    approaches = {}
    for side, (w0, g0, corners) in sides.items():
        if g0 is None:
            g0 = complex(dev.develop_at(w0))
        # the top and bottom edges carry the strip seams in their last
        # 1/K of developed parameter, so their corner approach must cut
        # off at a scale that shrinks with the aspect; the short edges
        # develop at unit scale and keep the fixed clip
        clip = corner_clip / dev.K if side in ("top", "bottom") else corner_clip
        for corner in corners:
            approaches[f"{side}_to_{corner}"] = _track_toward_corner(
                dev, CORNER_COORD[corner], w0, g0, 0, clip, quad_tol
            )
    for name, (curve, stall) in zip(approaches, lock_step(dev, list(approaches.values()))):
        cloud.add(name, resample_curve(curve, spacing), f"partial: {stall}" if stall else "")
    cloud.add("prevertices", np.array(dev.poles), "isolated corner preimages")
    return cloud


def _within_depth(depth: float, theta_max: float) -> bool:
    """Whether a stop at this winding depth from its seam is resolved at theta_max."""
    return depth <= theta_max + 1e-9


def _ray_target(center: complex, theta: float, r0: float, r1: float):
    """Radial developed-plane target, log-uniform in radius."""
    center = complex(center)
    lr0, lr1 = math.log(r0), math.log(r1)
    e = complex(math.cos(theta), math.sin(theta))

    def p(s):
        return center + math.exp(lr0 + s * (lr1 - lr0)) * e

    def dp(s):
        return (lr1 - lr0) * math.exp(lr0 + s * (lr1 - lr0)) * e

    return p, dp


def limit_image_cloud(
    x0: float,
    tau: float,
    theta_max: float = 8 * math.pi,
    spacing: float = 0.004,
    flank_inner: float = 1e-3,
    quad_tol: float = 1e-12,
) -> CurveCloud:
    """Limit boundary configuration around the two singular points.

    theta_max caps the spiral winding that is resolved explicitly; the
    sheets beyond it lie within the accumulation scale tau/theta_max of
    the singular points, which are included as cloud points themselves.

    The right real-axis crossing is solved once and mirrored to the left.
    A spiral end's stops lie at depths u <= theta_max from its seam, angle
    seam + orient*u by surface.SPIRAL_SEAM: seam_<corner> at u = 0, then
    flank_<corner>_n<n>a and _n<n>b at 2 pi n - pi/2 and 2 pi n, the edges
    of sheet n's rectangle window. Each spiral assembly first walks its
    bridges in order from the axis anchor, the collar's outer edge
    u = -pi/2, one track_level_curve per stop, and seeds the stop's rays
    <stop>_in and <stop>_out where the bridge ends, recording their depth,
    or the stop's "unreached:" note where the bridge stalls. A bridge's
    first step is a quarter of its arc: only its end point is kept, and
    that is pinned to the tracking tolerance however many steps lead to
    it. The mouth curves and all rays then run in one lock_step.
    """
    dev = DevelopingMap.merged_limit(x0, tau)
    cloud = CurveCloud()
    n_max = max(1, int(round(theta_max / (2 * math.pi))))

    # the real-axis anchor and its mirror start each side's two mouth
    # curves (developed value on the left and right square edges) and the
    # bridges of its two spiral assemblies
    u, g_right = _axis_anchor_real(dev)
    anchors, tracks = {}, {}
    for side, label in ((+1, "right"), (-1, "left")):
        w = complex(side * u)
        g = g_right if side > 0 else complex(dev.develop_at(w))
        anchors[side] = (w, g)
        for updown, cy in (("upper", 1.0), ("lower", -1.0)):
            p, dp = segment_target(side * (1 + 0j), side + 1j * cy * (1 - flank_inner))
            tracks[f"mouth_{label}_{updown}"] = level_curve_track(
                dev, p, dp, w, g0=g, max_step=0.05,
                quad_tol=quad_tol, max_steps=8000,
            )

    # spiral assemblies: bridge along the unit developed circle from the
    # axis anchor, pausing at each seam or flank angle to seed its two
    # rays; each bridge starts where the previous one ended, so they run
    # in order, and a stalled one ends its assembly with a note
    for name, corner in CORNER_COORD.items():
        # the bridge starts on the axis anchor, at the collar's outer edge
        seam, orient = SPIRAL_SEAM[name]
        th = seam - 0.5 * math.pi * orient
        w, g = anchors[int(np.sign(corner.real))]
        m = 0
        # stops by depth from the seam: the seam, then the two edges of
        # each sheet's rectangle window
        stops = [(0.0, f"seam_{name}")]
        for n in range(1, n_max + 2):
            stops.append((2 * math.pi * n - 0.5 * math.pi, f"flank_{name}_n{n}a"))
            stops.append((2 * math.pi * n, f"flank_{name}_n{n}b"))
        for depth, label in stops:
            if not _within_depth(depth, theta_max):
                break
            angle = seam + orient * depth
            # bridge to the next stop angle, at least pi/2 on; not part of
            # the cloud, so it takes long steps from the start (see the
            # module docstring)
            scale = tau / max(depth, math.pi)
            p, dp = arc_target(corner, 1.0, th, angle)
            br = track_level_curve(
                dev, p, dp, w, g0=g, branch0=m,
                max_step=min(0.05, 0.5 * scale), quad_tol=quad_tol,
                max_steps=20000, first_step=0.25,
            )
            if not br.completed:
                cloud.notes[label] = f"unreached: bridge {br.reason}"
                cloud.depths[label] = depth
                break
            w, g, m = complex(br.w[-1]), complex(br.g[-1]), int(br.branch[-1])
            th = angle
            for rng, tag in (((1.0, flank_inner), "in"), ((1.0, STRIP_DEPTH + 1.0), "out")):
                pr, dpr = _ray_target(corner, angle, rng[0], rng[1])
                cloud.depths[f"{label}_{tag}"] = depth
                tracks[f"{label}_{tag}"] = level_curve_track(
                    dev, pr, dpr, w, g0=g, branch0=m,
                    max_step=min(0.05, 0.5 * scale), quad_tol=quad_tol,
                    max_steps=20000, first_step=0.002,
                )

    # the mouths and every stop's rays are independent once seeded
    for name, r in zip(tracks, lock_step(dev, list(tracks.values()))):
        cloud.add(name, resample_curve(r.w, spacing), "" if r.completed else f"partial: {r.reason}")

    # glued edge: the identified top/bottom pair develops onto the real
    # segment between the singular points
    t = np.linspace(-x0 + 1e-4, x0 - 1e-4, max(3, int(math.ceil(2 * x0 / spacing))))
    cloud.add("glued_edge", t.astype(complex), "edge pair identified by the deck translation")
    cloud.add("singular_points", np.array([x0 + 0j, -x0 + 0j]),
              "accumulation points of the deep sheets")
    return cloud


# bar on the last finite-to-limit distance, frozen from the first measured
# run (3.93e-2 at aspect 1e6 and still shrinking); the convergence
# statement carries no rate, so the bar is empirical
HAUSDORFF_ACCEPT = 0.05


def convergence_report(
    k_values: Sequence[float],
    sweep: Sequence[SolveResult],
    fit: LimitEstimate,
    theta_max: float = 8 * math.pi,
    spacing: float = 0.004,
    quad_tol: float = 1e-12,
) -> dict:
    """Hausdorff distances from finite-aspect boundaries to the limit.

    sweep holds a solve for every aspect in k_values, and fit is the limit
    estimate whose (x0, tau) give the limit configuration. Returns a plain
    dict ready for serialization: per-aspect distances, the final one, its
    sensitivity to one coarser spiral cutoff, and, only when a compared
    curve stopped short, its notes under "incomplete" (by cloud).
    `checks.hausdorff_convergence` judges it.
    """
    ks = sorted(float(k) for k in k_values)
    by_k = {r.K: r for r in sweep}
    incomplete = {}
    # one coarser truncation level; the spiral tails it drops sit within
    # tau/theta_max of the limit points, so a large swing means the
    # distances are dominated by truncation, not by the K-trend. Both
    # levels come from one tracking pass to the deeper of the two.
    theta_alt = max(2 * math.pi, theta_max - 2 * math.pi)
    deep = limit_image_cloud(
        fit.x0, fit.tau, theta_max=max(theta_max, theta_alt), spacing=spacing, quad_tol=quad_tol
    )
    lim = deep.truncated(theta_max)
    lim_pts = lim.points
    if lim.incomplete:
        incomplete["limit"] = lim.incomplete

    rows = []
    for K in ks:
        dev = DevelopingMap.from_aspect(K, by_k[K].prevertex)
        cloud = rectangle_image_boundary(dev, spacing=spacing, quad_tol=quad_tol)
        if cloud.incomplete:
            incomplete[f"K={K:g}"] = cloud.incomplete
        d = hausdorff_distance(cloud.points, lim_pts)
        rows.append({"K": K, "hausdorff": d, "boundary_points": int(len(cloud.points))})
    final = rows[-1]["hausdorff"]

    alt = deep.truncated(theta_alt)
    if alt.incomplete:
        incomplete["limit_alt"] = alt.incomplete
    # cloud is the last aspect's
    final_alt = hausdorff_distance(cloud.points, alt.points)
    report = {
        "k_values": ks,
        "x0": fit.x0,
        "tau": fit.tau,
        "theta_max": theta_max,
        "spacing": spacing,
        "limit_points": int(len(lim_pts)),
        "rows": rows,
        "final_distance": final,
        "truncation": {
            "theta_max_alt": theta_alt,
            "final_distance_alt": final_alt,
            "sensitivity": abs(final - final_alt),
        },
    }
    if incomplete:
        report["incomplete"] = incomplete
    return report
