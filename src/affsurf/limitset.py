"""Boundary images and the limit curve configuration.

Everything here lives in the uniformized plane. For a finite aspect the
glued rectangle occupies a region whose boundary is the preimage of the
square boundary under the developing map; it is assembled from eight
tracked half-side curves that meet at the four prevertices. In the limit
the prevertex pairs have merged and the boundary configuration consists
of the two strip mouth curves, the seam rays between strips and spiral
sheets, the flank rays bounding each spiral sheet, the glued-edge
segment, and the two singular points that everything accumulates on.
Both clouds start from the boundary's axis crossings, each solved once by
_axis_seeds, whose Brent values after the first are developed from the
nearest one already developed on the axis rather than from infinity, and
whose mirror seeds are the reflections of the solved ones, value and all.
Each seed is a track's start (w, g, branch 0, g'), its slope one
single-point evaluation.
They reach the square's corners one way: a finite boundary's eight half
sides and the limit's four mouth curves are corner approaches
(_track_toward_corner) into the corners SIDE_CORNERS gives each side, and
every one stops CORNER_CLIP short of its corner in developed distance
(CORNER_CLIP/K on a finite boundary's top and bottom sides). An approach runs in stages, each from
developed distance rho to rho/4. The stages are alike on their shrinking
scales, so each stage after the first starts at the step in s its
previous stage had grown to, as an integrator restarts (Hairer, Norsett &
Wanner, Solving ODEs I, II.4): a K = 1e6 boundary takes 352 accepted
steps, not the 804 of a ramp up from 0.02 in every stage, at the same
largest deviation from a track on an eight times smaller step cap. Its
steps take 772 chords, 2.2 a step, in 135 lock-step rounds.
Every track starts from an axis seed or from the TrackResult.end of the
track before it (a stage, a bridge, a stop's two rays), the point,
sheet and slope g' that track ended on, so a cloud evaluates one
single-point slope per seed: four per boundary and two per limit cloud,
where starting afresh took 80 at K = 1e6 and 128 in the default limit
cloud.
Each cloud runs its tracks, the limit's spiral rays among them, in one
tracking.lock_step: each round makes one derivative call for all live
tracks. Every point is bit-identical to tracking it alone, because the
derivative is element-wise and a round whose pooled call meets the pole
clearance is evaluated request by request. Only the limit's bridges
between spiral stops run one at a time, since each starts where the
previous one ended. A bridge keeps only its end point, which the
corrector pins to the tracking tolerance at any step schedule, so its
first step is its whole arc, cut down by the step cap alone, rather than
a small one that the step growth must ramp up: the end is the same to
within 6e-12, in an eighth of the steps (60 against 504 from a first
step of 1/200, on the default cloud). Spiral stops are placed by depth
from the seams of surface.SPIRAL_SEAM, so mirror corners and the
embedding module's spiral charts number the sheets alike.
Clouds are resampled to uniform arc-length spacing so that Hausdorff
distances between them are meaningful at that resolution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, Optional, Sequence, Tuple

import numpy as np

from .develop import DEVELOP_TOL, DevelopingMap
from .quadrature import integrate_segment
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
# neighbours on each side whose distances bound a query's nearest one. A
# rectangle boundary against the limit cloud visits about 1.5 times as many
# blocks of 32 as of 64, but compares 10-27% fewer query-target pairs, and
# measured faster
_NN_BLOCK = 32
_NN_RANK_WINDOW = 4


def _farthest_nearest_sq(qx, qy, tx, ty, slack: float) -> float:
    """max over queries of min over targets of dx*dx + dy*dy.

    Exact: the minimum is over every target that can attain it. The
    targets are sorted by x; each query's distance to its x-rank
    neighbours bounds its nearest distance from above. The neighbours are
    the targets of rank pos - W .. pos + W - 1, W = _NN_RANK_WINDOW and pos
    the query's rank among them, clipped to the targets: on the sorted
    targets padded with W copies of each end they are the window pos ..
    pos + 2W - 1, so the bound is folded from 2W shifted gathers of the
    padded arrays without an index array. Queries go in x-ordered blocks
    of _NN_BLOCK, each compared with the targets inside its x-slice and
    y-box widened by the block's largest bound. Blocks run in order of
    that bound, and the pass stops once no remaining block can raise the
    maximum found so far. slack widens the boxes by more than the
    rounding of the bound's square root and of the box edges, a few ulp
    of the largest coordinate.
    """
    order = np.argsort(tx, kind="stable")
    tx, ty = tx[order], ty[order]
    w = _NN_RANK_WINDOW
    px = np.concatenate((np.full(w, tx[0]), tx, np.full(w, tx[-1])))
    py = np.concatenate((np.full(w, ty[0]), ty, np.full(w, ty[-1])))
    pos = np.searchsorted(tx, qx)
    bound = (px[pos] - qx) ** 2 + (py[pos] - qy) ** 2
    for shift in range(1, 2 * w):
        at = pos + shift
        np.minimum(bound, (px[at] - qx) ** 2 + (py[at] - qy) ** 2, out=bound)
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


def _axis_seeds(dev: DevelopingMap, d: complex) -> Tuple[Tuple[complex, complex, int, complex], ...]:
    """Track starts (w, g(w), 0, g'(w)) on the boundary's crossing of the
    axis along d, 1 or 1j, and on the crossing's mirror, -conj(w) or
    conj(w), both on branch 0.

    The crossing w = t*d solves Re g = 1 on the real axis
    (_real_crossing) and Im g = 1 on the imaginary one, keeping the g the
    solve left. Only the first value the solve takes comes from
    develop_at (on the imaginary axis, the centre's); every later one is
    developed from the nearest value already developed on the axis, along
    the axis segment between them, with the share of develop_at's
    DEVELOP_TOL that the segment's length is of the tail radius, as
    develop spreads its tolerance along a path. No such segment meets a
    slit: the real axis is searched right of the prevertex, and the
    imaginary axis lies between the slits. The mirror's seed is the
    reflection of the solved one, (-conj w, -conj g) or (conj w, conj g),
    since g(-conj w) = -conj g(w) and g(conj w) = conj g(w). Each seed's
    slope g' is dev.derivative at that seed, the mirror's evaluated at the
    mirror rather than reflected; no slit passes through a seed. At the
    square, where g is the identity, the crossings are 1 and i.

    Only finite boundaries seed on the imaginary axis; the limit cloud
    seeds on the real axis alone. There the crossing sinks like 1.438/K as
    the top edge flattens onto the real axis: measured, Im g(iv) - 1 is
    about -1/K as v -> 0, rises with slope g' ~ 0.695 and crosses zero at
    vK ~ 1.438. That solve starts at the rectangle's centre w = 0: only
    g(0) comes from develop_at, and the solve finds Im g(0) + Im h(v) = 1
    for h(v) = g(iv) - g(0), developed from h(0) = 0 with the same
    nearest-value rule and a Brent tolerance 1e-13 times the level
    1 - Im g(0). h carries its relative accuracy at every aspect, and the
    seed is g(0) + h, in the frame of develop_at like the real-axis seed.
    The reflection w -> conj w maps the surface to itself and exchanges
    the top and bottom sides, so the real segment between the slits,
    which it fixes, is the preimage of the rectangle's horizontal midline
    Im z = 0; the top gluing z -> z + i - i/K (surface.gluing_map) carries
    that line to Im g = 1 - 1/K, and w -> -conj w fixes the imaginary
    axis, where Re g = 0. So g(0) = i - i/K for the exact member, and
    g(0) keeps only the imaginary part of develop_at's value, whose real
    part is rounding: the two top tracks leave the seed in opposite
    directions, and near the corners, where |g'| falls to about 1e-9 at
    far aspects, a start 4e-15 off the mirror line split them by up to
    1.5e-5. For a prevertex solved to residual r, develop_at(0) differs
    from i - i/K by at most about 0.41 r (measured from K = 1.5 to 1e300;
    up to 0.98 r for prevertices moved off the solution), which from
    about K = 1e11 is larger than 1/K. Where it is, the crossing follows
    the solve's error, at vK ~ 5.3 for K = 1e11 and ~ 4e4 for 1e16, and
    where that error lifts g(0) onto or above the top edge, so that no
    crossing lies above the centre, the seed is taken from i - i/K + h
    instead, and lies off develop_at's frame, and the left and right
    sides, by that error.
    """
    if d != 1:
        # values hold h = g - g(0), and the solve finds Im g(0) + Im h = 1;
        # Re g(0) = 0 by the reflection w -> -conj w
        base = 1j * complex(dev.develop_at(0j)).imag
        level = 1.0 - base.imag
        if not level > 0.0:
            # the developed centre lies on or above the top edge
            base, level = 1j - 1j / dev.K, 1.0 / dev.K
        values = {0.0: 0j}
    else:
        # values hold g at every t tried: _brent returns one of them
        base, level, values = 0j, 1.0, {}

    def f(t: float) -> float:
        if t not in values:
            if values:
                near = min(values, key=lambda u: abs(u - t))
                share = DEVELOP_TOL * abs(t - near) / dev.tail_radius
                values[t] = values[near] + integrate_segment(dev.derivative, near * d, t * d, share)
            else:
                values[t] = complex(dev.develop_at(complex(t * d)))
        v = values[t]
        return (v.real if d == 1 else v.imag) - level

    if dev.K == 1.0:
        t = 1.0
        f(t)
    elif d == 1:
        t = _real_crossing(dev, f)
    else:
        t = _brent(f, 0.0, 0.95 * dev.tail_radius, 1e-13 * level)
    w, g = complex(t * d), base + values[t]
    if d == 1:
        w_mirror, g_mirror = -w.conjugate(), -g.conjugate()
    else:
        w_mirror, g_mirror = w.conjugate(), g.conjugate()
    return (w, g, 0, dev.derivative(w)), (w_mirror, g_mirror, 0, dev.derivative(w_mirror))


def _real_crossing(dev: DevelopingMap, f) -> float:
    """Root of f, Re g - 1 on the real axis, right of the right prevertex.

    The inner bracket end is probed inward by halving from Re z1 + 1/2: at
    the limit kind the derivative grows like exp(tau/distance) toward the
    singular point, so the end must stay where evaluation is finite, and g
    drops to -infinity fast enough that a moderate distance brackets. An
    ArithmeticError at an inner end (pole clearance, panel budget,
    overflow) ends the search unbracketed; any other exception propagates.
    """
    hi = 0.95 * dev.tail_radius
    fhi = f(hi)
    delta = 0.5
    for _ in range(40):
        lo = dev.poles[0].real + delta
        try:
            flo = f(lo)
        except ArithmeticError:
            raise ArithmeticError(
                f"boundary axis crossing not bracketed before the singular scale at delta={delta:.3g}"
            )
        if flo * fhi < 0.0:
            return _brent(f, lo, hi, 1e-13, flo, fhi)
        delta *= 0.5
    raise ArithmeticError("no sign change toward the singular point")


# developed distance from its corner at which every curve into a corner
# stops. A finite boundary's top and bottom sides carry the strip seams in
# their last 1/K of developed parameter, so they stop at CORNER_CLIP/K;
# the spiral stops' _in rays end at this radius.
CORNER_CLIP = 1e-3

# the corners of CORNER_COORD that each side's two halves run into, for a
# finite boundary's <side>_to_<corner> pieces and the limit's mouth curves
SIDE_CORNERS = {"right": ("ur", "br"), "left": ("ul", "bl"), "top": ("ur", "ul"), "bottom": ("br", "bl")}


def _track_toward_corner(
    dev: DevelopingMap, corner: complex, start: Tuple[complex, complex, int, complex], clip: float, quad_tol: float
) -> Generator[tuple, tuple, Tuple[np.ndarray, str]]:
    """Follow the square side radially into a corner value.

    The curve winds into the prevertex on a shrinking scale, so the
    approach runs in stages with the step cap tied to the current
    distance from the nearest pole (a prevertex, or at the limit a
    singular point). The stages are alike on their shrinking scales, so
    each one after the first starts at the step in s its previous stage
    had grown to (TrackResult.next_step) instead of ramping up again from
    the first stage's 0.02, and from the start that stage ended on
    (TrackResult.end); the first stage starts from an _axis_seeds start.
    The chain ends at developed distance clip, or before a stage whose
    end would lie within 2 ulp of the corner's coordinates, where float64
    barely tells its points from the corner (the top and bottom sides,
    clipped at CORNER_CLIP/K, reach that floor from about K = 1e13). A
    tracking.lock_step track that returns the joined stage curves and the
    reason the approach stalled ("" when it reached its clip or the floor).
    """
    w0, g0 = start[:2]
    rho = abs(g0 - corner)
    direction = (g0 - corner) / rho
    # no stage ends within 2 ulp of the corner's coordinates, where its
    # target would be rounding noise
    floor = 2.0 * math.ulp(max(abs(corner.real), abs(corner.imag)))
    pieces = []
    first_step = 0.02
    while rho > clip:
        rho_next = max(clip, rho / 4.0)
        if rho_next <= floor:
            break
        target = segment_target(corner + rho * direction, corner + rho_next * direction)
        near = min([abs(start[0] - z) for z in dev.poles])
        step = max(2e-4, 0.2 * near)
        # the derivative collapses with the developed scale near the
        # prevertex, so the on-curve tolerance must shrink with it or
        # the correction goes slack in w
        tol = min(max(1e-3 * rho_next, 1e-13), 1e-10)
        r = yield from level_curve_track(
            dev, *target, start, max_step=step, tol=tol,
            quad_tol=min(quad_tol, 0.1 * tol), first_step=first_step,
        )
        pieces.append(r.w)
        start, first_step = r.end, r.next_step
        if not r.completed:
            return np.concatenate(pieces), r.reason
        rho = rho_next
    return (np.concatenate(pieces) if pieces else np.array([w0])), ""


def _collect(cloud: CurveCloud, dev: DevelopingMap, tracks: Dict[str, Generator], spacing: float) -> None:
    """Run the named tracks in one lock_step and add each curve they hand
    back, resampled, to cloud, with a "partial:" note naming its stall."""
    for name, (curve, stall) in zip(tracks, lock_step(dev, list(tracks.values()))):
        cloud.add(name, resample_curve(curve, spacing), f"partial: {stall}" if stall else "")


def rectangle_image_boundary(
    dev: DevelopingMap,
    spacing: float = 0.004,
    quad_tol: float = 1e-12,
) -> CurveCloud:
    """Boundary of the glued rectangle's image, as a resampled cloud.

    Eight half-side tracks start on the coordinate axes, where symmetry
    puts the boundary's axis crossings, and run into the four corner
    values in lock step. Each side's seed comes from _axis_seeds. The
    prevertices themselves are appended since the tracked curves end
    CORNER_CLIP short of them (in developed distance; CORNER_CLIP/K on
    the top and bottom sides).
    """
    if dev.kind != "finite":
        raise ValueError("finite-aspect map required; use limit_image_cloud for the limit")
    cloud = CurveCloud()
    seeds = dict(zip(("right", "left"), _axis_seeds(dev, 1)))
    seeds.update(zip(("top", "bottom"), _axis_seeds(dev, 1j)))
    tracks = {}
    for side, seed in seeds.items():
        clip = CORNER_CLIP / dev.K if side in ("top", "bottom") else CORNER_CLIP
        for corner in SIDE_CORNERS[side]:
            tracks[f"{side}_to_{corner}"] = _track_toward_corner(
                dev, CORNER_COORD[corner], seed, clip, quad_tol
            )
    _collect(cloud, dev, tracks, spacing)
    cloud.add("prevertices", np.array(dev.poles), "isolated corner preimages")
    return cloud


def _within_depth(depth: float, theta_max: float) -> bool:
    """Whether a stop at this winding depth from its seam is resolved at theta_max."""
    return depth <= theta_max + 1e-9


def _ray_target(center: complex, theta: float, r0: float, r1: float):
    """Radial developed-plane target, log-uniform in radius: (p, dp, d2p),
    d2p = (lr1 - lr0) dp."""
    center = complex(center)
    lr0, lr1 = math.log(r0), math.log(r1)
    e = complex(math.cos(theta), math.sin(theta))

    def p(s):
        return center + math.exp(lr0 + s * (lr1 - lr0)) * e

    def dp(s):
        return (lr1 - lr0) * math.exp(lr0 + s * (lr1 - lr0)) * e

    def d2p(s):
        return (lr1 - lr0) * dp(s)

    return p, dp, d2p


def _curve_and_stall(track: Generator) -> Generator[tuple, tuple, Tuple[np.ndarray, str]]:
    """A level_curve_track's track that returns, as a corner approach
    does, its curve and the reason it stalled ("" when it got there)."""
    r = yield from track
    return r.w, r.reason


def _spiral_stops(name: str, theta_max: float) -> Iterator[Tuple[float, str]]:
    """limit_image_cloud's (depth, label) stops of one spiral end, one at a time."""
    yield 0.0, f"seam_{name}"
    for n in itertools.count(1):
        for depth, edge in ((2 * math.pi * n - 0.5 * math.pi, "a"), (2 * math.pi * n, "b")):
            if not _within_depth(depth, theta_max):
                return
            yield depth, f"flank_{name}_n{n}{edge}"


def limit_image_cloud(
    x0: float,
    tau: float,
    theta_max: float = 8 * math.pi,
    spacing: float = 0.004,
    quad_tol: float = 1e-12,
) -> CurveCloud:
    """Limit boundary configuration around the two singular points.

    theta_max caps the spiral winding that is resolved explicitly; the
    sheets beyond it lie within the accumulation scale tau/theta_max of
    the singular points, which are included as cloud points themselves.

    The right and left sides seed from _axis_seeds on the real axis. Each
    side's two mouth curves, mouth_<side>_upper and _lower, are corner
    approaches (_track_toward_corner) into the corners of SIDE_CORNERS,
    stopped CORNER_CLIP short of them.
    A spiral end's stops lie at depths u <= theta_max from its seam, angle
    seam + orient*u by surface.SPIRAL_SEAM: seam_<corner> at u = 0, then
    flank_<corner>_n<n>a and _n<n>b at 2 pi n - pi/2 and 2 pi n, the edges
    of sheet n's rectangle window. Each spiral assembly first walks its
    bridges in order from the axis seed, the collar's outer edge
    u = -pi/2, one track_level_curve per stop, and starts the stop's rays
    <stop>_in and <stop>_out where the bridge ends, recording their depth,
    or the stop's "unreached:" note where the bridge stalls. An assembly's
    first bridge starts from the axis seed; each later bridge, and both
    rays of a stop, from the TrackResult.end of the bridge before them. A
    bridge's first step is its whole arc, which the step cap alone cuts
    down: only its end point is kept, and that is pinned to the tracking
    tolerance however many steps lead to it. The mouth curves and all rays
    then run in one lock_step.
    """
    dev = DevelopingMap.merged_limit(x0, tau)
    cloud = CurveCloud()

    # the real-axis seed and its mirror start each side's two mouth curves
    # and the bridges of its two spiral assemblies
    seeds = dict(zip(("right", "left"), _axis_seeds(dev, 1)))
    tracks = {}
    for side, seed in seeds.items():
        for corner in SIDE_CORNERS[side]:
            half = "upper" if corner[0] == "u" else "lower"
            tracks[f"mouth_{side}_{half}"] = _track_toward_corner(
                dev, CORNER_COORD[corner], seed, CORNER_CLIP, quad_tol
            )

    # spiral assemblies: bridge along the unit developed circle from the
    # axis seed, pausing at each seam or flank angle to seed its two
    # rays; each bridge starts where the previous one ended, so they run
    # in order, and a stalled one ends its assembly with a note
    for name, corner in CORNER_COORD.items():
        # the bridge starts on the axis seed, at the collar's outer edge
        seam, orient = SPIRAL_SEAM[name]
        th = seam - 0.5 * math.pi * orient
        start = seeds["right" if corner.real > 0 else "left"]
        for depth, label in _spiral_stops(name, theta_max):
            angle = seam + orient * depth
            cap = min(0.05, 0.5 * tau / max(depth, math.pi))
            # bridge to the next stop angle, at least pi/2 on; not part of
            # the cloud, so it starts on its whole arc and the step cap
            # sizes its first chord (see the module docstring)
            br = track_level_curve(
                dev, *arc_target(corner, 1.0, th, angle), start,
                max_step=cap, quad_tol=quad_tol, first_step=1.0,
            )
            if not br.completed:
                cloud.notes[label] = f"unreached: bridge {br.reason}"
                cloud.depths[label] = depth
                break
            start, th = br.end, angle
            for tag, r1 in (("in", CORNER_CLIP), ("out", STRIP_DEPTH + 1.0)):
                cloud.depths[f"{label}_{tag}"] = depth
                tracks[f"{label}_{tag}"] = _curve_and_stall(level_curve_track(
                    dev, *_ray_target(corner, angle, 1.0, r1), start,
                    max_step=cap, quad_tol=quad_tol, first_step=0.002,
                ))

    # the mouths and every stop's rays are independent once seeded
    _collect(cloud, dev, tracks, spacing)

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
        cloud = rectangle_image_boundary(by_k[K].member, spacing=spacing, quad_tol=quad_tol)
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
