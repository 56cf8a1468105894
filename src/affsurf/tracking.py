"""Level-curve tracking through the branch structure.

The geometric output of the toolkit is curves in the uniformized plane
along which the developed value follows a prescribed path: boundary images
of the glued rectangle, seam rays, spiral flanks. Given a target path p(s)
in the developed plane and a seed on the curve, the tracker advances the
preimage by a Runge-Kutta predictor on w' = p'(s)/g'(w) and a Newton
corrector, maintaining the developed value incrementally by quadrature
along every chord the iteration moves through.

Each chord's quadrature also evaluates the continued derivative at the
chord's end: the end point joins the nodes of the first level, in the same
derivative call. That value is the Newton slope at the chord's end and,
once the step is accepted, the first RK4 stage of the next step, so only a
track's first stage is a separate evaluation ("first same as last",
Dormand & Prince 1980). An array element equals the single-point value bit
for bit, so the reuse leaves every tracked point unchanged.

The step logic is written once, as the generator level_curve_track: it
yields every derivative request it needs and is sent the outcome. The RK4
stages and the Newton slope are points, sent dev.derivative of each. Each
piece of a chord between slit crossings is a GK15 panel request (lo, hi,
tol, end), sent the piece's integral when its first level is accepted
and else the first level's values, from which quadrature.segment_levels
yields the later levels as arrays of nodes. track_level_curve runs one
track alone. lock_step runs several tracks together, one derivative call
per round on the requests of all live tracks: each point or array takes
its element or slice, and the round's panels are one first level, their
nodes placed by one quadrature.gk15_nodes call and their sums and accept
tests taken by one quadrature.gk15_level pass, whose stacked rows round
each panel as its segment alone would. A lone live track is evaluated on
its own request. limitset uses lock_step for a rectangle boundary's eight
corner approaches and for the limit cloud's mouth curves and spiral rays.
The pooled call changes no bit of any track: the derivative is
element-wise array arithmetic, so each element is the value its request
gets alone (TestScalarArrayAgreement checks single points against array
elements). When a pooled call raises, because some point lies inside the
pole clearance, every request of that round is evaluated alone and the
error goes only into the tracks whose own request raised it; those retry
their step shorter, as they would alone.

Target paths return Python complex: segment_target's straight line,
arc_target's circle (cmath.exp) and limitset's rays (math.exp). The
step arithmetic on p(s) and dp(s) then runs on Python scalars, which are
faster than numpy's and round division as Python does. A stage
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
# integrate_segment is not called here; perfbench's tracer checks that it
# rebinds the name in this module
from .quadrature import gk15_level, gk15_nodes, integrate_segment, segment_levels  # noqa: F401


def _continued_derivative(dev: DevelopingMap, a: complex, m: int, w: complex):
    """(continued g'(w), branch exponent at w) reached from (a, m) along the chord.

    A lock_step track: requests the derivative at w.
    """
    mm = m
    for _, dm in dev.slit_crossings(a, w):
        mm += dm
    gp = complex((yield w))
    if mm:
        gp *= dev.K**mm
    return gp, mm


def _piece(lo: complex, hi: complex, tol: float, end: complex | None = None):
    """(integral of the derivative along [lo, hi], the derivative at end or None).

    A lock_step track: requests the first GK15 level of [lo, hi] as the
    panel (lo, hi, tol, end), end None where no end value is wanted. It is
    sent the panel's integral where the first level is accepted, and else
    the first level's values, from which segment_levels goes on at the
    second level. A piece of zero length makes no request.
    """
    lo, hi = complex(lo), complex(hi)
    if lo == hi:
        return 0j, None
    integral, first, end_value = yield (lo, hi, tol, end)
    if integral is None:
        integral = yield from segment_levels(lo, hi, tol, first=first)
    return integral, end_value


def _chord_increment(dev: DevelopingMap, a: complex, b: complex, m: int, quad_tol: float):
    """(integral of the continued derivative along [a, b], exponent at b,
    continued g'(b) or None).

    A lock_step track: requests the quadrature of each piece between slit
    crossings. The end value comes with the first level of the chord's
    last piece, whose panel request takes b as its end node. It is None
    where that piece is missing or has zero length (the chord ends on a
    slit, or is shorter than the rounding of b) or where b lies on a slit's
    line; there _continued_derivative decides between the value and its
    refusal.
    """
    total = 0j
    mm = m
    t_prev = 0.0
    for t, dm in dev.slit_crossings(a, b):
        if t > t_prev:
            piece, _ = yield from _piece(a + t_prev * (b - a), a + t * (b - a), quad_tol)
            total += piece * (dev.K**mm if mm else 1.0)
        mm += dm
        t_prev = t
    if t_prev >= 1.0:
        return total, mm, None
    piece, end = yield from _piece(a + t_prev * (b - a), b, quad_tol, b)
    total += piece * (dev.K**mm if mm else 1.0)
    if end is None or any(b.real == sx for sx, _ in dev.slits):
        return total, mm, None
    gp = complex(end)
    if mm:
        gp *= dev.K**mm
    return total, mm, gp


def lock_step(dev: DevelopingMap, tracks: Sequence[Generator]) -> list:
    """Run tracks together; their return values, in order.

    A track is a generator that yields derivative requests and is sent
    their outcomes. A point (a complex) or a 1-D complex array of points is
    sent dev.derivative of it. A GK15 panel (lo, hi, tol, end), end a point
    or None, is sent (integral, first, end value): integral is None where
    quadrature.gk15_level's accept test refines the panel, first holds the
    derivative on the panel's 15 nodes, and the end value is None where end
    is. Each round takes the outcomes of all live tracks' requests from
    _outcomes, and sends each track its outcome or throws into it, at the
    yield, the ValueError or ArithmeticError its own request raised, as
    running that track alone would do. An error that a track does not
    catch propagates.
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


def _outcomes(dev: DevelopingMap, requests: list) -> list:
    """The outcome of each request (see lock_step), or the error it raises.

    Several requests share one derivative call, on their points, arrays,
    panel nodes and panel ends. Each point or array takes its element or
    slice, and the panels' sums and accept tests are one gk15_level pass
    over their stacked rows. A lone request, and every request of a shared
    call that raises, is evaluated alone: a refused request is evaluated
    once, a lone track's derivative sees its points and arrays as they were
    yielded, and a lone panel evaluates its own 15 nodes and end in one
    call.
    """
    if len(requests) > 1:
        try:
            return _shared(dev, requests)
        except (ValueError, ArithmeticError):
            pass
    outcomes = []
    for r in requests:
        try:
            outcomes.append(_shared(dev, [r])[0] if type(r) is tuple else dev.derivative(r))
        except (ValueError, ArithmeticError) as exc:
            outcomes.append(exc)
    return outcomes


def _shared(dev: DevelopingMap, requests: list) -> list:
    """The outcomes of requests from one derivative call; see _outcomes."""
    points, arrays, panels = [], [], []
    for r in requests:
        if type(r) is tuple:
            panels.append(r)
        elif isinstance(r, complex):
            points.append(r)
        else:
            arrays.append(r)
    args = [points, *arrays]
    if panels:
        lo, hi, tol, end = zip(*panels)
        h, nodes = gk15_nodes(np.array(lo), np.array(hi))
        args += (nodes.ravel(), [e for e in end if e is not None])
    vals = dev.derivative(np.concatenate(args))
    if panels:
        n, at = len(panels), len(points) + sum(map(len, arrays))
        first = vals[at:at + 15 * n].reshape(n, 15)
        ends = iter(vals[at + 15 * n:])
        # each panel is its own segment, its length taken by Python's abs
        # as segment_levels takes it (numpy's complex abs can differ in the
        # last bit)
        total = np.array([abs(b - a) for a, b in zip(lo, hi)])
        sums, _, live = gk15_level(first[:, None], h[:, None], np.array(tol)[:, None], total[:, None])
        panel_outcomes = iter([
            (None if refine else integral, row, None if e is None else next(ends))
            for integral, refine, row, e in zip(sums[:, 0, 0].tolist(), live[:, 0].tolist(), first, end)
        ])
    outcomes, i, start = [], 0, len(points)
    for r in requests:
        if type(r) is tuple:
            outcomes.append(next(panel_outcomes))
        elif isinstance(r, complex):
            outcomes.append(vals[i])
            i += 1
        else:
            outcomes.append(vals[start:start + len(r)])
            start += len(r)
    return outcomes


@dataclass
class TrackResult:
    s: np.ndarray
    w: np.ndarray
    g: np.ndarray
    branch: np.ndarray
    status: str  # "completed" or "stalled"
    reason: str

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
) -> Generator[np.ndarray, np.ndarray, TrackResult]:
    """Track the curve g(w(s)) = p(s), 0 <= s <= 1, from a seed on it.

    A lock_step track that returns the TrackResult; track_level_curve runs
    one alone.
    w0 must satisfy g(w0) = p(0), to _ANCHOR_TOL relative, on the branch
    given by branch0 and g0.
    max_step caps the w-plane distance per step, so it should be set below
    the feature scale of the curve (a petal four sheets in is far smaller
    than the mouth of a strip). A track that cannot proceed, or whose step
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

    h = min(first_step, 1.0)

    ss, ws, gs, ms = [0.0], [w], [g], [m]
    s = 0.0
    status, reason = "completed", ""
    steps = 0
    # continued g'(w), carried from the accepted chord's end when it has one
    gp = None
    while s < 1.0 - 1e-14:
        if steps >= max_steps:
            status, reason = "stalled", f"step budget {max_steps} exhausted"
            break
        steps += 1
        h = min(h, 1.0 - s)
        s_new = s + h
        ok = False
        try:
            # RK4 stages; branch for each stage point is resolved along
            # the chord from the accepted point
            if gp is None:
                gp = (yield from _continued_derivative(dev, w, m, w))[0]
            k1 = dp(s) / gp
            dp_mid = dp(s + 0.5 * h)
            w2 = w + 0.5 * h * k1
            k2 = dp_mid / (yield from _continued_derivative(dev, w, m, w2))[0]
            w3 = w + 0.5 * h * k2
            k3 = dp_mid / (yield from _continued_derivative(dev, w, m, w3))[0]
            w4 = w + h * k3
            k4 = dp(s_new) / (yield from _continued_derivative(dev, w, m, w4))[0]
            w_pred = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
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
                        ok = True
                        break
                    if gp_cur is None:
                        gp_cur = (yield from _continued_derivative(dev, w_cur, m_cur, w_cur))[0]
                    dw = -r / gp_cur
                    if abs(dw) > move_cap:
                        break
                    inc, m_cur, gp_cur = yield from _chord_increment(
                        dev, w_cur, w_cur + dw, m_cur, quad_tol
                    )
                    w_cur += dw
                    g_cur += inc
        except (ValueError, ArithmeticError):
            # pole clearance, slit-parallel chord, or exhausted quadrature:
            # retry shorter
            ok = False
        if ok:
            s, w, g, m, gp = s_new, w_cur, g_cur, m_cur, gp_cur
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
    )
