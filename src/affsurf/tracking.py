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
yields every point set whose derivative it needs (the RK4 stages, the
Newton slope, each chord's quadrature levels from
quadrature.segment_levels) and is sent dev.derivative of it.
track_level_curve runs one track alone. lock_step runs several tracks
together, one derivative call per round on the requests of all live
tracks, each handed its own slice; limitset uses it for a rectangle
boundary's eight corner approaches and for the limit cloud's mouth curves
and spiral rays. The pooled call changes no bit of any
track: the derivative is element-wise array arithmetic, so each element is
the value its request gets alone (TestScalarArrayAgreement checks single
points against array elements). When a pooled call raises, because some
point lies inside the pole clearance, every request of that round is
evaluated alone and the error goes only into the tracks whose own request
raised it; those retry their step shorter, as they would alone.

Branches: crossing one of the two vertical slits multiplies the continued
derivative by the aspect or its reciprocal. An integer exponent per point
records the current sheet, so curves may wind through any number of
sheets; the continued derivative is principal * K**m, and each quadrature
panel is split where a chord meets a slit so no panel straddles the jump.
The sign convention follows from the corner holonomy: a counterclockwise
circuit of the top-right prevertex crosses the right slit leftward once
and must scale the derivative by 1/K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .develop import DevelopingMap
# integrate_segment is not called here; perfbench's tracer checks that it
# rebinds the name in this module
from .quadrature import integrate_segment, segment_levels, segment_slit_crossing  # noqa: F401


def _chord_crossings(dev: DevelopingMap, a: complex, b: complex):
    """Slit crossings of the chord [a, b] in traversal order.

    Returns (t, slit_index, direction) triples; direction is the sign of
    the real velocity. A straight chord meets each vertical slit line at
    most once.
    """
    # trivial aspect: the slits are degenerate and carry no jump, and
    # boundary curves legitimately run along them
    if not dev.slits or dev.K == 1.0:
        return []
    dx = (b - a).real
    out = []
    for idx, (sx, sy) in enumerate(dev.slits):
        t = segment_slit_crossing(a, b, sx, sy)
        if t is None:
            continue
        if dx == 0.0:
            raise ArithmeticError("chord runs along a branch slit")
        out.append((t, idx, 1 if dx > 0 else -1))
    out.sort()
    return out


def _branch_delta(slit_index: int, direction: int) -> int:
    # right slit (index 0): leftward crossing raises the exponent;
    # left slit mirrors it
    return -direction if slit_index == 0 else direction


def _continued_derivative(dev: DevelopingMap, a: complex, m: int, w: complex):
    """(continued g'(w), branch exponent at w) reached from (a, m) along the chord.

    A lock_step track: requests the derivative at w.
    """
    mm = m
    for _, idx, d in _chord_crossings(dev, a, w):
        mm += _branch_delta(idx, d)
    gp = complex((yield w))
    if mm:
        gp *= dev.K**mm
    return gp, mm


def _chord_increment(dev: DevelopingMap, a: complex, b: complex, m: int, quad_tol: float):
    """(integral of the continued derivative along [a, b], exponent at b,
    continued g'(b) or None).

    A lock_step track: requests each quadrature level of each piece
    between slit crossings. The end value comes from the first level of
    the chord's last piece, whose request takes b as one more node. It is
    None where that piece is missing or has zero length (the chord ends on
    a slit, or is shorter than the rounding of b) or where b lies on a
    slit's line; there _continued_derivative decides between the value and
    its refusal.
    """
    crossings = _chord_crossings(dev, a, b)
    total = 0j
    mm = m
    t_prev = 0.0
    for t, idx, d in crossings:
        if t > t_prev:
            lo, hi = a + t_prev * (b - a), a + t * (b - a)
            piece = yield from segment_levels(lo, hi, quad_tol)
            total += piece * (dev.K**mm if mm else 1.0)
        mm += _branch_delta(idx, d)
        t_prev = t
    if t_prev >= 1.0:
        return total, mm, None
    end = None
    levels = segment_levels(a + t_prev * (b - a), b, quad_tol)
    try:
        nodes = next(levels)
        vals = yield np.concatenate((nodes, (b,)))
        end = vals[-1]
        nodes = levels.send(vals[:-1])
        while True:
            nodes = levels.send((yield nodes))
    except StopIteration as done:
        piece = done.value
    total += piece * (dev.K**mm if mm else 1.0)
    if end is None or any(b.real == sx for sx, _ in dev.slits):
        return total, mm, None
    gp = complex(end)
    if mm:
        gp *= dev.K**mm
    return total, mm, gp


def lock_step(dev: DevelopingMap, tracks: Sequence[Generator]) -> list:
    """Run tracks together; their return values, in order.

    A track is a generator that yields derivative requests, each a point
    (a complex) or a 1-D complex array of points, and is sent
    dev.derivative of each. While two or more tracks are live, each round
    makes one derivative call on all their requests and hands each track
    its element or slice. Where that call raises ValueError or
    ArithmeticError, every request of the round is evaluated alone, and an
    error is thrown into the track whose own request raised it, at the
    yield, as running that track alone would do. The last live track runs
    on alone. An error that a track does not catch propagates.
    """
    results: list = [None] * len(tracks)
    live = []

    def advance(i, gen, resume, arg):
        try:
            live.append((i, gen, resume(arg)))
        except StopIteration as done:
            results[i] = done.value

    for i, gen in enumerate(tracks):
        advance(i, gen, gen.send, None)
    while len(live) > 1:
        batch, live = live, []
        requests = [request for _, _, request in batch]
        try:
            pooled = dev.derivative(
                np.concatenate([(r,) if isinstance(r, complex) else r for r in requests])
            )
        except (ValueError, ArithmeticError):
            outcomes = [_alone(dev, r) for r in requests]
        else:
            outcomes, start = [], 0
            for r in requests:
                if isinstance(r, complex):
                    outcomes.append(pooled[start])
                    start += 1
                else:
                    outcomes.append(pooled[start:start + len(r)])
                    start += len(r)
        for (i, gen, _), out in zip(batch, outcomes):
            if isinstance(out, Exception):
                advance(i, gen, gen.throw, out)
            else:
                advance(i, gen, gen.send, out)
    for i, gen, request in live:
        try:
            while True:
                try:
                    values = dev.derivative(request)
                except (ValueError, ArithmeticError) as exc:
                    request = gen.throw(exc)
                else:
                    request = gen.send(values)
        except StopIteration as done:
            results[i] = done.value
    return results


def _alone(dev: DevelopingMap, request):
    """dev.derivative of one request, or the error it raises."""
    try:
        return dev.derivative(request)
    except (ValueError, ArithmeticError) as exc:
        return exc


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

    s in [0, 1] covers the arc; th1 > th0 winds counterclockwise.
    """
    om = th1 - th0

    def p(s):
        return center + radius * np.exp(1j * (th0 + om * s))

    def dp(s):
        return radius * 1j * om * np.exp(1j * (th0 + om * s))

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
    g0: Optional[complex] = None,
    branch0: int = 0,
    tol: float = 1e-10,
    quad_tol: float = 1e-13,
    max_step: float = 0.1,
    first_step: Optional[float] = None,
    max_steps: int = 20000,
) -> Generator[np.ndarray, np.ndarray, TrackResult]:
    """Track the curve g(w(s)) = p(s), 0 <= s <= 1, from a seed on it.

    A lock_step track that returns the TrackResult; track_level_curve runs
    one alone.
    w0 must satisfy g(w0) = p(0), to _ANCHOR_TOL relative, on the branch
    given by branch0 and g0; when g0 is omitted it is computed on the
    principal branch, which requires w0 to be reachable by develop_at.
    max_step caps the w-plane distance per step, so it should be set below
    the feature scale of the curve (a petal four sheets in is far smaller
    than the mouth of a strip). A track that cannot proceed, or whose step
    in s falls under _MIN_STEP, returns the partial curve with status
    "stalled" rather than raising.
    """
    w = complex(w0)
    m = int(branch0)
    if g0 is None:
        if m != 0:
            raise ValueError("an explicit g0 is required when branch0 is nonzero")
        g = complex(dev.develop_at(w))
    else:
        g = complex(g0)
    target0 = complex(p(0.0))
    if abs(g - target0) > _ANCHOR_TOL * (1.0 + abs(target0)):
        raise ValueError(
            f"seed develops to {g:.6g}, not the target start {target0:.6g}"
        )

    h = first_step if first_step is not None else 1.0 / 200.0
    h = min(h, 1.0)

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
