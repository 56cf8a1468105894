"""Level-curve tracking through the branch structure.

The geometric output of the toolkit is curves in the uniformized plane
along which the developed value follows a prescribed path: boundary images
of the glued rectangle, seam rays, spiral flanks. Given a target path p(s)
in the developed plane and a seed on the curve, the tracker advances the
preimage along w' = p'(s)/g'(w) by a predictor and a Newton corrector
(Allgower & Georg, Numerical Continuation Methods, 1990, ch. 2),
maintaining the developed value incrementally by quadrature along every
chord the iteration moves through.

The predictor evaluates no derivative. It extrapolates the slopes
k = p'(s)/g'(w) at the last two accepted points linearly in s, and steps
w + h*k1 + h**2/2 * (k1 - k_prev)/h_prev; a track's first step is the
tangent w + h*k1. The corrector pins every accepted point to tol whatever
the predictor, and max_step caps the accepted move. Each g' comes from a
chord's quadrature, which evaluates the chord's end as one more node of
its first level, in the same derivative call: that value is the Newton
slope at the chord's end and, once the step is accepted, the slope of the
next step ("first same as last", Dormand & Prince 1980). Only a track's
first slope, and the slope at a chord end on a slit's line, are single
points, evaluated in the track by _slope. An array element equals the
single-point value bit for bit, so where a slope comes from changes no
tracked point.

The step logic is written once, as the generator level_curve_track: it
yields every quadrature request it needs and is sent the outcome. Each
request is a GK15 panel (lo, hi, tol, end), one piece of a chord between
slit crossings. It is sent the piece's integral when its first level is
accepted and else the first level's values, with which the piece finishes
in its own quadrature.integrate_segment call. track_level_curve runs one
track alone. lock_step runs several tracks together, one derivative call
per round on the panels of all live tracks: the round's panels are one
first level, their nodes placed by one quadrature.gk15_nodes call and
their sums and accept tests taken by one quadrature.gk15_level pass,
whose stacked rows round each panel as its segment alone would. limitset
uses lock_step for a rectangle boundary's eight corner approaches and for
the limit cloud's mouth curves and spiral rays.
The pooled call changes no bit of any track: the derivative is
element-wise array arithmetic, so each element is the value its panel
gets alone (TestScalarArrayAgreement checks single points against array
elements). When a pooled call raises an ArithmeticError (the pole
clearance), every panel of that round is evaluated alone and the error
goes only into the tracks whose own panel raised it; those retry their
step shorter, as they would alone. Any other exception is a bug and
propagates.

Target paths return Python complex: segment_target's straight line,
arc_target's circle (cmath.exp) and limitset's rays (math.exp). The
step arithmetic on p(s) and dp(s) then runs on Python scalars, which are
faster than numpy's and round division as Python does. A slope derivative
of exactly zero raises ZeroDivisionError, an ArithmeticError that fails
the step like the pole clearance does, where a numpy scalar quotient
would only warn and go on with inf.

Branches: crossing a branch slit multiplies the continued derivative by
the aspect or its reciprocal. An integer exponent per point records the
current sheet, so curves may wind through any number of sheets; the
continued derivative is principal * K**m, and each quadrature panel is
split where a chord meets a slit so no panel straddles the jump. Where a
chord meets a slit, and how far m moves there, comes from
DevelopingMap.slit_crossings, whose docstring states the sign convention.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .develop import DevelopingMap
from .quadrature import gk15_level, gk15_nodes, integrate_segment


def _slope(dev: DevelopingMap, w: complex, m: int) -> complex:
    """Continued g'(w) on the sheet of branch exponent m, evaluated alone.

    A point on a slit has no value: slit_crossings refuses the chord of
    zero length along it with an ArithmeticError, as the pole clearance
    refuses a point too close to a prevertex.
    """
    dev.slit_crossings(w, w)
    gp = dev.derivative(w)
    return gp * dev.K**m if m else gp


def _piece(dev: DevelopingMap, lo: complex, hi: complex, tol: float, end: complex | None = None):
    """(integral of the derivative along [lo, hi], the derivative at end or None).

    A lock_step track: requests the first GK15 level of [lo, hi] as the
    panel (lo, hi, tol, end), end None where no end value is wanted. It is
    sent the panel's integral where the first level is accepted, and else
    the first level's values, with which integrate_segment goes on at the
    second level, evaluating dev.derivative itself. A piece of zero length
    makes no request.
    """
    lo, hi = complex(lo), complex(hi)
    if lo == hi:
        return 0j, None
    integral, first, end_value = yield (lo, hi, tol, end)
    if integral is None:
        integral = integrate_segment(dev.derivative, lo, hi, tol, first=first)
    return integral, end_value


def _chord_increment(dev: DevelopingMap, a: complex, b: complex, m: int, quad_tol: float):
    """(integral of the continued derivative along [a, b], exponent at b,
    continued g'(b) or None).

    A lock_step track: requests the quadrature of each piece between slit
    crossings. The end value comes with the first level of the chord's
    last piece, whose panel request takes b as its end node. It is None
    where that piece is missing or has zero length (the chord ends on a
    slit, or is shorter than the rounding of b) or where b lies on a slit's
    line; there _slope decides between the value and its refusal.
    """
    total = 0j
    mm = m
    t_prev = 0.0
    for t, dm in dev.slit_crossings(a, b):
        if t > t_prev:
            piece, _ = yield from _piece(dev, a + t_prev * (b - a), a + t * (b - a), quad_tol)
            total += piece * (dev.K**mm if mm else 1.0)
        mm += dm
        t_prev = t
    if t_prev >= 1.0:
        return total, mm, None
    piece, end = yield from _piece(dev, a + t_prev * (b - a), b, quad_tol, b)
    total += piece * (dev.K**mm if mm else 1.0)
    if end is None or any(b.real == sx for sx, _ in dev.slits):
        return total, mm, None
    gp = complex(end)
    if mm:
        gp *= dev.K**mm
    return total, mm, gp


def lock_step(dev: DevelopingMap, tracks: Sequence[Generator]) -> list:
    """Run tracks together; their return values, in order.

    A track is a generator that yields GK15 panel requests (lo, hi, tol,
    end), end a point or None, and is sent (integral, first, end value):
    integral is None where quadrature.gk15_level's accept test refines the
    panel, first holds the derivative on the panel's 15 nodes, and the end
    value is None where end is. Each round takes the outcomes of all live
    tracks' panels from _outcomes, and sends each track its outcome or
    throws into it, at the yield, the ArithmeticError its own panel raised,
    as running that track alone would do. An error that a track does not
    catch, and any exception that is not an ArithmeticError, propagates.
    """
    results: list = [None] * len(tracks)
    live, outcomes = list(enumerate(tracks)), [None] * len(tracks)
    while live:
        batch, live, requests = live, [], []
        for track, out in zip(batch, outcomes):
            i, gen = track
            try:
                requests.append(gen.throw(out) if isinstance(out, Exception) else gen.send(out))
            except StopIteration as done:
                results[i] = done.value
            else:
                live.append(track)
        outcomes = _outcomes(dev, requests)
    return results


def _outcomes(dev: DevelopingMap, panels: list) -> list:
    """The outcome of each panel (see lock_step), or the error it raises.

    The panels share one derivative call on their nodes and ends, and
    their sums and accept tests are one gk15_level pass over their stacked
    rows. Where that call raises an ArithmeticError, each panel is
    evaluated alone, its 15 nodes and end in one call, and its
    ArithmeticError is its outcome; a lone panel is evaluated once.
    """
    if len(panels) > 1:
        try:
            return _shared(dev, panels)
        except ArithmeticError:
            pass
    outcomes = []
    for panel in panels:
        try:
            outcomes.extend(_shared(dev, [panel]))
        except ArithmeticError as exc:
            outcomes.append(exc)
    return outcomes


def _shared(dev: DevelopingMap, panels: list) -> list:
    """The outcomes of panels from one derivative call; see _outcomes."""
    lo, hi, tol, end = zip(*panels)
    h, nodes = gk15_nodes(np.array(lo), np.array(hi))
    n = len(panels)
    vals = dev.derivative(np.concatenate((nodes.ravel(), [e for e in end if e is not None])))
    first = vals[:15 * n].reshape(n, 15)
    ends = iter(vals[15 * n:])
    # each panel is its own segment, its length taken by Python's abs as
    # integrate_segment takes it (numpy's complex abs can differ in the
    # last bit)
    total = np.array([abs(b - a) for a, b in zip(lo, hi)])
    sums, _, live = gk15_level(first[:, None], h[:, None], np.array(tol)[:, None], total[:, None])
    return [
        (None if refine else integral, row, None if e is None else next(ends))
        for integral, refine, row, e in zip(sums[:, 0, 0].tolist(), live[:, 0].tolist(), first, end)
    ]


@dataclass
class TrackResult:
    s: np.ndarray
    w: np.ndarray
    g: np.ndarray
    branch: np.ndarray
    status: str  # "completed" or "stalled"
    reason: str
    # the step in s the track had grown to when its final step was cut to
    # the remainder 1 - s: a first_step for a track that goes on from here
    next_step: float

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def segment_target(a: complex, b: complex):
    """Straight developed-plane target from a to b on s in [0, 1]."""
    a, b = complex(a), complex(b)
    return (lambda s: a + s * (b - a)), (lambda s: b - a)


def arc_target(center: complex, radius: float, th0: float, th1: float):
    """Developed-plane circular arc around center from angle th0 to th1.

    s in [0, 1] covers the arc; th1 > th0 winds counterclockwise. p and dp
    return Python complex, by cmath.exp, as segment_target's do.
    """
    center, radius, th0 = complex(center), float(radius), float(th0)
    om = float(th1) - th0

    def p(s):
        return center + radius * cmath.exp(1j * (th0 + om * s))

    def dp(s):
        return radius * 1j * om * cmath.exp(1j * (th0 + om * s))

    return p, dp


# relative mismatch allowed between g(w0) and p(0), and the step in s
# below which a track stalls
_ANCHOR_TOL = 1e-6
_MIN_STEP = 1e-10


def track_level_curve(dev: DevelopingMap, *args, **kwargs) -> TrackResult:
    """level_curve_track(dev, ...) run alone: the tracked curve as a TrackResult."""
    return lock_step(dev, [level_curve_track(dev, *args, **kwargs)])[0]


def level_curve_track(
    dev: DevelopingMap,
    p: Callable[[float], complex],
    dp: Callable[[float], complex],
    w0: complex,
    g0: complex,
    branch0: int = 0,
    tol: float = 1e-10,
    quad_tol: float = 1e-13,
    max_step: float = 0.1,
    first_step: float = 1.0 / 200.0,
    max_steps: int = 20000,
) -> Generator[tuple, tuple, TrackResult]:
    """Track the curve g(w(s)) = p(s), 0 <= s <= 1, from a seed on it.

    A lock_step track that returns the TrackResult; track_level_curve runs
    one alone.
    w0 must satisfy g(w0) = p(0), to _ANCHOR_TOL relative, on the branch
    given by branch0 and g0.
    max_step caps the w-plane distance |w_new - w| of each accepted step,
    checked after the Newton correction, so it should be set below the
    feature scale of the curve (a petal four sheets in is far smaller than
    the mouth of a strip); a predictor chord longer than it is refused
    before any quadrature. A track that cannot proceed, or whose step
    in s falls under _MIN_STEP, returns the partial curve with status
    "stalled" rather than raising.
    """
    w = complex(w0)
    m = int(branch0)
    g = complex(g0)
    target0 = complex(p(0.0))
    if abs(g - target0) > _ANCHOR_TOL * (1.0 + abs(target0)):
        raise ValueError(
            f"seed develops to {g:.6g}, not the target start {target0:.6g}"
        )

    h = grown = min(first_step, 1.0)

    ss, ws, gs, ms = [0.0], [w], [g], [m]
    s = 0.0
    status, reason = "completed", ""
    steps = 0
    # continued g'(w), carried from the accepted chord's end when it has
    # one, and the slope and step of the previous accepted point
    gp = k_prev = h_prev = None
    while s < 1.0 - 1e-14:
        if steps >= max_steps:
            status, reason = "stalled", f"step budget {max_steps} exhausted"
            break
        steps += 1
        grown, h = h, min(h, 1.0 - s)
        s_new = s + h
        ok = False
        try:
            if not gp:
                # a track's first slope, or one no chord end gave; a retry
                # keeps it, unless it was zero and failed the step
                gp = _slope(dev, w, m)
            k1 = dp(s) / gp
            w_pred = w + h * k1
            if k_prev is not None:
                w_pred += 0.5 * h * h * (k1 - k_prev) / h_prev
            chord = abs(w_pred - w)
            if chord <= max_step:
                inc, m_cur, gp_cur = yield from _chord_increment(dev, w, w_pred, m, quad_tol)
                g_cur = g + inc
                w_cur = w_pred
                p_new = complex(p(s_new))
                scale = 1.0 + abs(p_new)
                move_cap = 4.0 * max(chord, 1e-3 * max_step)
                for _ in range(6):
                    r = g_cur - p_new
                    if abs(r) <= tol * scale:
                        ok = abs(w_cur - w) <= max_step
                        break
                    if gp_cur is None:
                        gp_cur = _slope(dev, w_cur, m_cur)
                    dw = -r / gp_cur
                    if abs(dw) > move_cap:
                        break
                    inc, m_cur, gp_cur = yield from _chord_increment(
                        dev, w_cur, w_cur + dw, m_cur, quad_tol
                    )
                    w_cur += dw
                    g_cur += inc
        except ArithmeticError:
            # pole clearance, slit-parallel chord, or exhausted quadrature:
            # retry shorter
            ok = False
        if ok:
            s, w, g, m, gp = s_new, w_cur, g_cur, m_cur, gp_cur
            k_prev, h_prev = k1, h
            ss.append(s), ws.append(w), gs.append(g), ms.append(m)
            h = min(h * 1.4, 1.0)
        else:
            h *= 0.5
            if h < _MIN_STEP:
                status, reason = "stalled", f"step size underflow at s = {s:.6g}"
                break
    return TrackResult(
        s=np.array(ss),
        w=np.array(ws),
        g=np.array(gs),
        branch=np.array(ms, dtype=int),
        status=status,
        reason=reason,
        next_step=grown,
    )
