"""Level-curve tracking through the branch structure.

The geometric output of the toolkit is curves in the uniformized plane
along which the developed value follows a prescribed path: boundary images
of the glued rectangle, seam rays, spiral flanks. Given a target path p(s)
in the developed plane and a seed on the curve, the tracker advances the
preimage along w' = p'(s)/g'(w) by a third-order predictor and a Halley
corrector (Allgower & Georg, Numerical Continuation Methods, 1990, ch. 2),
maintaining the developed value incrementally by quadrature along every
chord the iteration moves through.

Both follow the curve's bending, which the member's affine structure
gives in closed form: the connection c = g''/g' (DevelopingMap.connection,
one point in scalar arithmetic). Differentiating g'(w) w' = p' gives
w'' = p''/g' - c k**2 with k = p'/g', and a target carries p'' as its
d2p. The predictor steps w + h*k + h**2/2 * w'' + h**3/6 * (w'' -
w''_prev)/h_prev, the last term from the previous accepted point's w''
(a track's first step has none). The corrector is Halley's (Traub,
Iterative Methods for the Solution of Equations, 1964): the Newton step
dw_N = -(g - p)/g' becomes dw_N/(1 + c*dw_N/2), with c at the chord's
end. A K = 1e6 boundary takes its 352 accepted steps in 2.2 chords
each. The corrector pins every accepted point to tol whatever the
predictor, and max_step caps the accepted move. Each g' comes from a
chord's quadrature: the first level of every piece of the chord
evaluates the piece's hi as one more node, in the same derivative call,
and the last piece's hi is the chord's end. That value is the corrector's slope at the chord's end
and, once the step is accepted, the slope of the next step ("first same
as last", Dormand & Prince 1980). c is taken once at each chord's end
and carried with g' in the same way; only a track's start takes it
afresh. A chord end inside the connection's pole clearance fails its
step, as the derivative's refusal does.
The same reuse runs across tracks: a track starts from one value, start =
(w, g, branch, slope), which is what TrackResult.end gives, so a track
that goes on from another starts from the point, sheet and slope it
ended on, as a continuation restarts from the state it holds (Allgower
& Georg, ch. 2); a track from a bare seed takes the seed's single-point
slope. A chord that ends on a slit has no last piece, so no end value,
and fails its step. An array element equals the single-point value bit for bit
(TestScalarArrayAgreement), so where a slope comes from changes no
tracked point.

The step logic is written once, as the generator level_curve_track: it
yields every quadrature request it needs and is sent the outcome. Each
chord is one generator, _chord_increment, and each request a GK15 panel
(lo, hi, tol), one piece of the chord between slit crossings. It is sent
(integral, first-level values, g' at hi), integral None where the first
level is refined; the chord then finishes that piece in its own
quadrature.integrate_segment call. track_level_curve runs one track
alone. lock_step runs several tracks together, one derivative call per
round on the panels of all live tracks: the round's panels are one first
level, their nodes placed by one quadrature.gk15_nodes call and their
sums and accept tests taken by one quadrature.gk15_level pass, whose
stacked rows round each panel as its segment alone would. limitset uses
lock_step for each cloud's corner approaches, a rectangle boundary's
eight half sides and the limit cloud's four mouth curves, and for the
limit cloud's spiral rays.
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
step arithmetic on p(s), dp(s) and d2p(s) then runs on Python scalars,
which are faster than numpy's and round division as Python does. A slope
derivative of exactly zero raises ZeroDivisionError, an ArithmeticError
that fails the step like the pole clearance does, where a numpy scalar
quotient would only warn and go on with inf.

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


def _chord_increment(dev: DevelopingMap, a: complex, b: complex, m: int, quad_tol: float):
    """(integral of the continued derivative along [a, b], exponent at b,
    continued g'(b)).

    A lock_step track: requests each piece of the chord between slit
    crossings as the GK15 panel (lo, hi, tol) and, where the piece's first
    level is refined, finishes it with integrate_segment from that level's
    values. Every outcome brings g' at the piece's hi; the last piece's,
    at b, is the chord's end value. A piece of zero length makes no
    request. Where the last piece is missing or rounds to zero length,
    the chord ends on a slit, where g' has no value, or within rounding
    of a crossing or of its own start; it then raises ArithmeticError,
    which fails the step.
    """
    total, mm, t_prev = 0j, m, 0.0
    # b itself closes the last piece, where m does not change
    for t, dm in (*dev.slit_crossings(a, b), (1.0, 0)):
        lo, hi = a + t_prev * (b - a), (a + t * (b - a) if t < 1.0 else b)
        end = None
        if t > t_prev and lo != hi:
            integral, first, end = yield (lo, hi, quad_tol)
            if integral is None:
                integral = integrate_segment(dev.derivative, lo, hi, quad_tol, first=first)
            total += integral * (dev.K**mm if mm else 1.0)
        mm += dm
        t_prev = t
    if end is None:
        raise ArithmeticError(f"chord {a} -> {b} ends on a branch slit or rounds to a point")
    gp = complex(end)
    if mm:
        gp *= dev.K**mm
    return total, mm, gp


def lock_step(dev: DevelopingMap, tracks: Sequence[Generator]) -> list:
    """Run tracks together; their return values, in order.

    A track is a generator that yields GK15 panel requests (lo, hi, tol)
    and is sent (integral, first, g' at hi): integral is None where
    quadrature.gk15_level's accept test refines the panel, and first holds
    the derivative on the panel's 15 nodes. The connection at a chord's
    end is no part of the outcome: each track takes it alone, in scalar
    arithmetic, which costs less than pooling it. Each round takes the outcomes
    of all live tracks' panels from _outcomes, and sends each track its
    outcome or throws into it, at the yield, the ArithmeticError its own
    panel raised, as running that track alone would do. An error that a
    track does not catch, and any exception that is not an
    ArithmeticError, propagates.
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

    The panels share one derivative call on each one's 15 nodes and hi, and
    their sums and accept tests are one gk15_level pass over their stacked
    rows. Where that call raises an ArithmeticError, each panel is
    evaluated alone, its 15 nodes and hi in one call, and its
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
    lo, hi, tol = zip(*panels)
    # each panel is its own segment, its length taken by Python's abs as
    # integrate_segment takes it (numpy's complex abs can differ in the
    # last bit)
    total = np.array([abs(b - a) for a, b in zip(lo, hi)])
    hi = np.array(hi)
    h, nodes = gk15_nodes(np.array(lo), hi)
    n = len(panels)
    vals = dev.derivative(np.concatenate((nodes.ravel(), hi)))
    first, ends = vals[:15 * n].reshape(n, 15), vals[15 * n:]
    sums, _, live = gk15_level(first[:, None], h[:, None], np.array(tol)[:, None], total[:, None])
    return [
        (None if refine else integral, row, end)
        for integral, refine, row, end in zip(sums[:, 0, 0].tolist(), live[:, 0].tolist(), first, ends)
    ]


@dataclass
class TrackResult:
    s: np.ndarray
    w: np.ndarray
    g: np.ndarray
    branch: np.ndarray
    # why the track stalled, "" where it completed
    reason: str
    # the step in s the track had grown to when its final step was cut to
    # the remainder 1 - s: a first_step for a track that goes on from here
    next_step: float
    # continued g' at the last point, on its sheet: the start's slope
    # where no step was accepted, else the last accepted chord's end value
    slope: complex

    @property
    def completed(self) -> bool:
        return not self.reason

    @property
    def end(self) -> tuple[complex, complex, int, complex]:
        """(w, g, branch, slope) at the last point: the start of a track
        that goes on from here."""
        return complex(self.w[-1]), complex(self.g[-1]), int(self.branch[-1]), self.slope


def segment_target(a: complex, b: complex):
    """Straight developed-plane target from a to b on s in [0, 1]: (p, dp,
    d2p), d2p = 0."""
    a, b = complex(a), complex(b)
    return (lambda s: a + s * (b - a)), (lambda s: b - a), (lambda s: 0j)


def arc_target(center: complex, radius: float, th0: float, th1: float):
    """Developed-plane circular arc around center from angle th0 to th1.

    s in [0, 1] covers the arc; th1 > th0 winds counterclockwise. p, dp and
    d2p = i om dp return Python complex, by cmath.exp, as segment_target's
    do.
    """
    center, radius, th0 = complex(center), float(radius), float(th0)
    om = float(th1) - th0

    def p(s):
        return center + radius * cmath.exp(1j * (th0 + om * s))

    def dp(s):
        return radius * 1j * om * cmath.exp(1j * (th0 + om * s))

    def d2p(s):
        return 1j * om * dp(s)

    return p, dp, d2p


# relative mismatch allowed between a start's g and p(0), and the step in
# s below which a track stalls
_ANCHOR_TOL = 1e-6
_MIN_STEP = 1e-10
# step attempts after which a track stalls, far above any track's need:
# over render --k 1.5, 2, 1e6, 1e16 and 1e300 and limit --theta-max 16 pi
# no corner stage made more than 11 attempts, no bridge or ray more than 16
_MAX_STEPS = 20000


def track_level_curve(dev: DevelopingMap, *args, **kwargs) -> TrackResult:
    """level_curve_track(dev, ...) run alone: the tracked curve as a TrackResult."""
    return lock_step(dev, [level_curve_track(dev, *args, **kwargs)])[0]


def level_curve_track(
    dev: DevelopingMap,
    p: Callable[[float], complex],
    dp: Callable[[float], complex],
    d2p: Callable[[float], complex],
    start: tuple[complex, complex, int, complex],
    tol: float = 1e-10,
    quad_tol: float = 1e-13,
    max_step: float = 0.1,
    first_step: float = 1.0 / 200.0,
) -> Generator[tuple, tuple, TrackResult]:
    """Track the curve g(w(s)) = p(s), 0 <= s <= 1, from a seed on it.

    A lock_step track that returns the TrackResult; track_level_curve runs
    one alone.
    p, dp and d2p are the target path and its first two derivatives in s,
    as segment_target, arc_target and limitset's rays return them.
    start = (w, g, branch, slope) is the state the track starts from, the
    TrackResult.end of the track it goes on from or an axis seed: g(w) =
    p(0), to _ANCHOR_TOL relative, on the sheet of that branch, and slope
    the continued g'(w) there, a seed's dev.derivative(w) times K**branch.
    It is taken as Python scalars, whatever it is built from. A zero slope
    fails every step with a ZeroDivisionError, so the track stalls.
    max_step caps the w-plane distance |w_new - w| of each accepted step,
    checked after the correction, so it should be set below the
    feature scale of the curve (a petal four sheets in is far smaller than
    the mouth of a strip); a predictor chord longer than it is refused
    before any quadrature. A track that cannot proceed, whose step in s
    falls under _MIN_STEP, or that has made _MAX_STEPS step attempts,
    returns the partial curve with the reason it stalled rather than
    raising.
    """
    w, g, m, gp = complex(start[0]), complex(start[1]), int(start[2]), complex(start[3])
    target0 = complex(p(0.0))
    if abs(g - target0) > _ANCHOR_TOL * (1.0 + abs(target0)):
        raise ValueError(
            f"seed develops to {g:.6g}, not the target start {target0:.6g}"
        )

    h = grown = min(first_step, 1.0)

    ss, ws, gs, ms = [0.0], [w], [g], [m]
    s = 0.0
    reason = ""
    steps = 0
    # gp, the continued g'(w), comes with the start and then from the
    # accepted chord's end; the connection g''/g' at w is carried likewise,
    # or taken inside the first step so that a seed inside its pole
    # clearance stalls the track instead of raising; and w'' and the step
    # of the previous accepted point
    c = None
    connection = dev.connection
    w2_prev = h_prev = None
    while s < 1.0 - 1e-14:
        if steps >= _MAX_STEPS:
            reason = f"step budget {_MAX_STEPS} exhausted"
            break
        steps += 1
        grown, h = h, min(h, 1.0 - s)
        s_new = s + h
        ok = False
        try:
            if c is None:
                c = connection(w)
            k = dp(s) / gp
            w2 = d2p(s) / gp - c * k * k
            w_pred = w + h * k + 0.5 * h * h * w2
            if w2_prev is not None:
                w_pred += h * h * h / 6.0 * (w2 - w2_prev) / h_prev
            chord = abs(w_pred - w)
            if chord <= max_step:
                inc, m_cur, gp_cur = yield from _chord_increment(dev, w, w_pred, m, quad_tol)
                c_cur = connection(w_pred)
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
                    # Halley: the Newton step dw_N = -r/g' over 1 + c dw_N/2
                    dw = -r / gp_cur
                    dw /= 1.0 + 0.5 * c_cur * dw
                    if abs(dw) > move_cap:
                        break
                    inc, m_cur, gp_cur = yield from _chord_increment(
                        dev, w_cur, w_cur + dw, m_cur, quad_tol
                    )
                    w_cur += dw
                    c_cur = connection(w_cur)
                    g_cur += inc
        except ArithmeticError:
            # pole clearance, a chord along or onto a slit, a zero slope, or
            # exhausted quadrature: retry shorter
            ok = False
        if ok:
            s, w, g, m, gp, c = s_new, w_cur, g_cur, m_cur, gp_cur, c_cur
            w2_prev, h_prev = w2, h
            ss.append(s), ws.append(w), gs.append(g), ms.append(m)
            h = min(h * 1.4, 1.0)
        else:
            h *= 0.5
            if h < _MIN_STEP:
                reason = f"step size underflow at s = {s:.6g}"
                break
    return TrackResult(
        s=np.array(ss),
        w=np.array(ws),
        g=np.array(gs),
        branch=np.array(ms, dtype=int),
        reason=reason,
        next_step=grown,
        slope=gp,
    )
