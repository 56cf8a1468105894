"""Level-curve tracker: branch bookkeeping against exact holonomy facts."""

import cmath
import math

import numpy as np
import pytest

import affsurf.limitset as limitset
import affsurf.tracking as tracking
from affsurf.develop import DevelopingMap
from affsurf.quadrature import gk15_nodes, integrate_segment
from affsurf.limitset import rectangle_image_boundary
from affsurf.solver import continuation_sweep
from affsurf.tracking import (
    _chord_increment,
    arc_target,
    level_curve_track,
    lock_step,
    segment_target,
    track_level_curve,
)

Z1_K2 = 1.248075111571 + 0.767644410562j
Z1_K1000 = 1.883446848935 + 0.157918326981j
CORNER = 1 + 1j


def circle(g0, turns):
    """Developed-plane circle around CORNER through g0; positive turns wind ccw."""
    th0 = cmath.phase(g0 - CORNER)
    return arc_target(CORNER, abs(g0 - CORNER), th0, th0 + 2 * math.pi * turns)


@pytest.fixture(scope="module")
def dev2():
    return DevelopingMap.from_aspect(2.0, Z1_K2)


@pytest.fixture(scope="module")
def seed2(dev2):
    # a start (w, g, 0, g') as limitset's axis seeds hand them to their tracks
    w0 = Z1_K2 + 0.1
    return w0, complex(dev2.develop_at(w0)), 0, dev2.derivative(w0)


class TestBasics:
    def test_trivial_aspect_is_identity(self):
        dev = DevelopingMap.from_aspect(1.0, 1 + 1j)
        p, dp, d2p = segment_target(2.0 + 0j, 2.0 + 1.5j)
        r = track_level_curve(dev, p, dp, d2p, (2.0 + 0j, 2.0 + 0j, 0, dev.derivative(2.0)))
        assert r.completed
        gaps = [abs(r.w[i] - p(r.s[i])) for i in range(len(r.s))]
        assert max(gaps) < 1e-12

    def test_trivial_crossing_degenerate_slits(self):
        # at aspect 1 g' has no jump and the member no slits: a track
        # across the lines x = +-1 stays exact
        dev = DevelopingMap.from_aspect(1.0, 1 + 1j)
        p, dp, d2p = segment_target(2 + 0.5j, -2 + 0.5j)
        r = track_level_curve(dev, p, dp, d2p, (2 + 0.5j, 2 + 0.5j, 0, dev.derivative(2 + 0.5j)))
        assert r.completed
        assert max(abs(r.w[i] - p(r.s[i])) for i in range(len(r.s))) < 1e-12

    def test_limit_kind_tracks_without_branches(self):
        lim = DevelopingMap.merged_limit(1.9132015196, 0.3470332389)
        w0 = 3.0 + 0j
        g0 = complex(lim.develop_at(w0))
        p, dp, d2p = segment_target(g0, g0 + 1.2j)
        r = track_level_curve(lim, p, dp, d2p, (w0, g0, 0, lim.derivative(w0)))
        assert r.completed
        assert (r.branch == 0).all()
        assert abs(complex(lim.develop_at(r.w[-1])) - p(1.0)) < 1e-9

    def test_endpoint_develops_to_target(self, dev2, seed2):
        g0 = seed2[1]
        p, dp, d2p = segment_target(g0, g0 + 0.4 + 0.3j)
        r = track_level_curve(dev2, p, dp, d2p, seed2)
        assert r.completed
        assert abs(complex(dev2.develop_at(r.w[-1])) - p(1.0)) < 1e-9
        assert (r.branch == 0).all()
        assert np.abs(np.diff(r.w)).sum() > 0

    def test_wrong_seed_rejected(self, dev2, seed2):
        g0 = seed2[1]
        p, dp, d2p = segment_target(g0 + 0.3, g0 + 1)
        with pytest.raises(ValueError):
            track_level_curve(dev2, p, dp, d2p, seed2)


class TestHolonomyLoops:
    """Developed-plane circles around the corner image.

    One counterclockwise circuit of the corner value must lift to one
    circuit of the prevertex: the branch exponent drops by 1, the spiral
    widens by the aspect, and the principal developed value at the new
    point is the corner holonomy (ratio K, fixed point the corner)
    applied to the start value. All three are exact statements.
    """

    def test_ccw_loop(self, dev2, seed2):
        w0, g0 = seed2[:2]
        p, dp, d2p = circle(g0, +1.0)
        r = track_level_curve(dev2, p, dp, d2p, seed2, max_step=0.08)
        assert r.completed
        assert r.branch[-1] == -1
        assert abs(r.g[-1] - p(1.0)) < 1e-9
        predicted = CORNER + 2.0 * (g0 - CORNER)
        assert abs(complex(dev2.develop_at(r.w[-1])) - predicted) < 1e-9
        ratio = abs(r.w[-1] - Z1_K2) / abs(w0 - Z1_K2)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_cw_loop(self, dev2, seed2):
        w0, g0 = seed2[:2]
        p, dp, d2p = circle(g0, -1.0)
        r = track_level_curve(dev2, p, dp, d2p, seed2, max_step=0.08)
        assert r.completed
        assert r.branch[-1] == +1
        predicted = CORNER + 0.5 * (g0 - CORNER)
        assert abs(complex(dev2.develop_at(r.w[-1])) - predicted) < 1e-9
        ratio = abs(r.w[-1] - Z1_K2) / abs(w0 - Z1_K2)
        assert ratio == pytest.approx(0.5, rel=0.05)

    def test_two_turns(self, dev2):
        w0 = Z1_K2 + 0.05
        g0 = complex(dev2.develop_at(w0))
        p, dp, d2p = circle(g0, -2.0)
        r = track_level_curve(dev2, p, dp, d2p, (w0, g0, 0, dev2.derivative(w0)), max_step=0.006, first_step=1 / 400)
        assert r.completed
        assert r.branch[-1] == +2
        predicted = CORNER + 0.25 * (g0 - CORNER)
        assert abs(complex(dev2.develop_at(r.w[-1])) - predicted) < 1e-9

    def test_loop_composition_returns_home(self, dev2, seed2):
        # ccw then cw around the same developed circle: back to the seed
        w0, g0 = seed2[:2]
        p, dp, d2p = circle(g0, +1.0)
        out = track_level_curve(dev2, p, dp, d2p, seed2, max_step=0.08)
        p2, dp2, d2p2 = circle(g0, -1.0)
        back = track_level_curve(dev2, p2, dp2, d2p2, out.end, max_step=0.08)
        assert back.completed
        assert back.branch[-1] == 0
        assert abs(back.w[-1] - w0) < 1e-8


class TestStepControl:
    def test_budget_exhaustion_reports_stall(self, dev2, seed2, monkeypatch):
        g0 = seed2[1]
        monkeypatch.setattr(tracking, "_MAX_STEPS", 3)
        p, dp, d2p = circle(g0, +1.0)
        r = track_level_curve(dev2, p, dp, d2p, seed2, max_step=0.08)
        assert not r.completed
        assert "budget" in r.reason
        assert len(r.w) == 4
        assert 0 < np.abs(np.diff(r.w)).sum() < 1

    def test_into_the_prevertex(self, dev2, seed2):
        # the target ends at the singular value itself; the track must
        # either stall cleanly or end next to the prevertex, never raise
        g0 = seed2[1]
        p, dp, d2p = segment_target(g0, CORNER)
        r = track_level_curve(dev2, p, dp, d2p, seed2, max_step=0.004)
        if r.completed:
            assert abs(r.w[-1] - Z1_K2) < 1e-6
        else:
            assert r.reason
        assert len(r.w) > 5

    def test_monotone_parameter(self, dev2, seed2):
        g0 = seed2[1]
        p, dp, d2p = segment_target(g0, g0 + 0.5j)
        r = track_level_curve(dev2, p, dp, d2p, seed2)
        assert (np.diff(r.s) > 0).all()
        assert r.s[0] == 0.0 and r.s[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_slope_retries_the_step(self, dev2, seed2, monkeypatch):
        # a slope derivative of exactly zero divides the target's Python
        # complex derivative by zero: a ZeroDivisionError, which fails the
        # step like any ArithmeticError, where a numpy scalar would only warn.
        # Every retry divides by the same zero slope, which no chord end has
        # replaced, so the track stalls where it started and raises nothing
        w0, g0 = seed2[:2]
        calls = _count_derivative_calls(monkeypatch)
        p, dp, d2p = circle(g0, +0.25)
        r = track_level_curve(dev2, p, dp, d2p, (w0, g0, 0, 0j), max_step=0.08, first_step=0.1)
        assert not r.completed
        assert r.reason == "step size underflow at s = 0"
        assert list(r.w) == [w0] and r.slope == 0j
        assert calls == []

    def test_a_seed_inside_the_connection_clearance_stalls(self, dev2):
        # the connection's pole clearance (1e-12 of the pole scale) is ten
        # times the derivative's, so a seed between the two has a slope but
        # no connection: every step fails and the track stalls where it
        # started, raising nothing
        z = dev2.poles[0]
        w0 = z + 5e-13 * (1.0 + max(abs(p) for p in dev2.poles)) * (0.6 + 0.8j)
        g0 = 1 + 1j
        r = track_level_curve(dev2, *segment_target(g0, g0 + 1e-3), (w0, g0, 0, dev2.derivative(w0)))
        assert not r.completed
        assert r.reason == "step size underflow at s = 0"
        assert list(r.w) == [w0]
        with pytest.raises(ArithmeticError, match="singular point"):
            dev2.connection(w0)

    def test_targets_are_python_complex(self):
        for target in (
            segment_target(np.complex128(CORNER), 0.5),
            circle(CORNER + 0.3, +1.0),
            arc_target(np.complex128(CORNER), np.float64(0.5), np.float64(0.0), 3.0),
            limitset._ray_target(np.complex128(CORNER), 0.5, 1.0, 1e-3),
        ):
            for s in (0.0, 0.37, 1.0):
                assert all(type(f(s)) is complex for f in target)

    @pytest.mark.parametrize("target", [
        segment_target(0.3 + 0.2j, -1.1 + 0.7j),
        arc_target(CORNER, 0.5, 0.3, -5.0),
        limitset._ray_target(CORNER, 0.5, 1.0, 1e-3),
        limitset._ray_target(-CORNER, 2.0, 1.0, 11.0),
    ], ids=["segment", "arc", "ray-in", "ray-out"])
    def test_second_derivative_is_the_slope_of_dp(self, target):
        # d2p against a central difference of dp, whose error is about
        # e^2 |p^(4)|/6 plus dp's rounding over e
        _, dp, d2p = target
        e = 1e-5
        for s in (0.0, 0.37, 1.0):
            diff = (dp(s + e) - dp(s - e)) / (2 * e)
            assert abs(d2p(s) - diff) <= 1e-8 * (1.0 + abs(dp(s))), s


def _count_derivative_calls(monkeypatch):
    calls = []
    derivative = DevelopingMap.derivative

    def counted(self, w):
        calls.append(np.size(w))
        return derivative(self, w)

    monkeypatch.setattr(DevelopingMap, "derivative", counted)
    return calls


class TestDerivativeBudget:
    # an accepted step makes one call per quadrature level of each chord
    # it moves through (the predictor's and mostly one Halley chord),
    # whose end value serves as the next corrector slope or the next
    # step's slope; the first slope is the start's, so a track
    # makes no call of its own outside its chords. These tracks take
    # about 2.0 calls per step

    def test_corner_approach(self, monkeypatch):
        dev = DevelopingMap.from_aspect(1000.0, Z1_K1000)
        w0 = Z1_K1000 + 0.2
        g0 = complex(dev.develop_at(w0))
        p, dp, d2p = segment_target(g0, CORNER + 1e-3 * (g0 - CORNER) / abs(g0 - CORNER))
        gp0 = dev.derivative(w0)
        calls = _count_derivative_calls(monkeypatch)
        r = track_level_curve(dev, p, dp, d2p, (w0, g0, 0, gp0), max_step=0.004)
        steps = len(r.s) - 1
        assert r.completed and steps > 50
        assert len(calls) <= 2.5 * steps

    def test_limit_ray(self, monkeypatch):
        lim = DevelopingMap.merged_limit(1.9132015196, 0.3470332389)
        w0 = 3.0 + 0j
        g0 = complex(lim.develop_at(w0))
        p, dp, d2p = segment_target(g0, g0 + 1.2j)
        gp0 = lim.derivative(w0)
        calls = _count_derivative_calls(monkeypatch)
        r = track_level_curve(lim, p, dp, d2p, (w0, g0, 0, gp0))
        steps = len(r.s) - 1
        assert r.completed and steps > 10
        assert len(calls) <= 2.5 * steps


def _steps_counted(steps):
    """level_curve_track, appending each track's accepted steps to steps."""
    def counted(*args, **kwargs):
        r = yield from level_curve_track(*args, **kwargs)
        steps.append(len(r.s) - 1)
        return r

    return counted


def _alone(dev, request):
    """The return value of one derivative request run alone."""
    return lock_step(dev, [request])[0]


class TestChordEnd:
    """The end value a chord carries is the point evaluation it replaces."""

    @pytest.mark.parametrize(
        "a, b",
        [
            (Z1_K2 + 0.1, Z1_K2 + 0.1 + 0.02j),  # one panel
            (1.5 + 0.3j, 1.0 + 0.2j),  # across the right slit
            (-1.5 + 0.3j, -1.0 - 0.2j),  # across the left slit
            (1.5 + 0.3j, -1.5 + 0.1j),  # across both
            (-1.45 + 0.87j, 0.4 - 0.2j),  # across the left slit, then refined
            (0.3 + 0.1j, Z1_K2 + 0.02 + 0.5j),  # four levels
        ],
    )
    @pytest.mark.parametrize("m", [0, 1, -2])
    def test_end_value_equals_point_evaluation(self, dev2, a, b, m):
        inc, mm, gp = _alone(dev2, _chord_increment(dev2, a, b, m, 1e-12))
        assert mm == m + sum(dm for _, dm in dev2.slit_crossings(a, b))
        assert gp is not None
        # the scalar evaluation of b, continued to its sheet
        point = complex(dev2.derivative(b))
        if mm:
            point *= dev2.K**mm
        assert np.complex128(gp).tobytes() == np.complex128(point).tobytes()

    def test_chord_ending_on_a_slit_has_no_end_value(self, dev2):
        # g' has no value on a slit, so a chord that ends there fails
        sx, _ = dev2.slits[0]
        end = complex(sx, 0.2)
        with pytest.raises(ArithmeticError, match="slit"):
            _alone(dev2, _chord_increment(dev2, end + 0.1 + 0.05j, end, 0, 1e-12))
        # on the slit's line but clear of the slit, the end has its value
        clear = complex(sx, 2.0)
        inc, mm, gp = _alone(dev2, _chord_increment(dev2, clear + 0.1 + 0.05j, clear, 0, 1e-12))
        assert mm == 0
        assert _same_bits(gp, dev2.derivative(clear))

    def test_a_track_hands_on_the_slope_at_its_end(self, dev2, seed2, monkeypatch):
        # a track's slope is its last point's single-point value, on its
        # sheet, bit for bit; a track that starts there with it as its slope
        # makes the same derivative calls and tracks the same points as one
        # given that value afresh
        g0 = seed2[1]
        p, dp, d2p = circle(g0, -1.0)
        r = track_level_curve(dev2, p, dp, d2p, seed2, max_step=0.08)
        w, m = complex(r.w[-1]), int(r.branch[-1])
        assert r.completed and m != 0
        point = dev2.derivative(w) * dev2.K**m
        assert type(r.slope) is complex and _same_bits(r.slope, point)
        p, dp, d2p = circle(complex(r.g[-1]), +0.25)
        calls = _count_derivative_calls(monkeypatch)
        fresh = track_level_curve(dev2, p, dp, d2p, (w, complex(r.g[-1]), m, point), max_step=0.08)
        n_fresh = len(calls)
        carried = track_level_curve(dev2, p, dp, d2p, r.end, max_step=0.08)
        assert len(calls) - n_fresh == n_fresh
        for a, b in ((fresh.w, carried.w), (fresh.g, carried.g), (fresh.slope, carried.slope)):
            assert _same_bits(a, b)

    def test_a_start_of_numpy_scalars_tracks_as_python_scalars(self, dev2, seed2):
        # the start is taken as Python scalars, so the last elements of a
        # TrackResult's arrays start a track bit for bit as TrackResult.end
        # does, off branch 0
        r = track_level_curve(dev2, *circle(seed2[1], -1.0), seed2, max_step=0.08)
        numpy_start = (r.w[-1], r.g[-1], r.branch[-1], np.complex128(r.slope))
        assert [type(x) for x in numpy_start] == [np.complex128, np.complex128, np.int64, np.complex128]
        assert numpy_start[2] != 0
        target = circle(complex(r.g[-1]), +0.25)
        numpy = track_level_curve(dev2, *target, numpy_start, max_step=0.08)
        python = track_level_curve(dev2, *target, r.end, max_step=0.08)
        assert numpy.completed and type(numpy.slope) is complex
        for field in ("s", "w", "g", "branch", "slope", "next_step"):
            assert _same_bits(getattr(numpy, field), getattr(python, field)), field

    def test_end_inside_the_pole_guard_fails_the_chord(self, dev2):
        # the end node shares the chord's derivative request, so the chord
        # itself is refused and the tracker retries the step shorter
        with pytest.raises(ArithmeticError, match="singular point"):
            _alone(dev2, _chord_increment(dev2, Z1_K2 + 0.01, Z1_K2 + 1e-15, 0, 1e-12))


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _one_at_a_time(dev, tracks):
    return [lock_step(dev, [track])[0] for track in tracks]


@pytest.fixture(scope="module")
def solved():
    return {r.K: r.prevertex for r in continuation_sweep([2.0, 1e3, 1e6])}


class TestLockStep:
    """Generators run in lock step return what each returns run alone.

    A pooled derivative call evaluates each node by the same element-wise
    arithmetic as a call on that node's request alone (see
    TestScalarArrayAgreement in test_develop), so sharing a call changes
    no bit of any track.
    """

    @pytest.mark.parametrize("K", [2.0, 1e3, 1e6])
    def test_corner_approaches_match_their_solo_runs(self, K, solved, monkeypatch):
        dev = DevelopingMap.from_aspect(K, solved[K])
        batched = rectangle_image_boundary(dev)
        monkeypatch.setattr(limitset, "lock_step", _one_at_a_time)
        solo = rectangle_image_boundary(dev)
        assert list(batched.pieces) == list(solo.pieces)
        for name, points in batched.pieces.items():
            assert _same_bits(points, solo.pieces[name]), name
        assert batched.notes == solo.notes

    def test_a_request_inside_the_pole_guard_fails_only_its_own_track(self, dev2, seed2, monkeypatch):
        g0 = seed2[1]
        z = dev2.poles[0]
        # off the slit's line, 1e-3 from the prevertex: the first step's
        # predicted point ends 1e-14 from it, inside the pole clearance, so
        # that chord's panel is refused and the track retries at half the
        # step. A segment has p'' = 0, so a whole first step predicts
        # w + k - c k^2/2, with k = p'/g' and c the connection at w; k is
        # the root of k - c k^2/2 = d near d
        off = 0.6 + 0.8j
        near = z + 1e-3 * off
        g_near = complex(dev2.develop_at(near))
        d = z + 1e-14 * off - near
        k = 2.0 * d / (1.0 + cmath.sqrt(1.0 - 2.0 * dev2.connection(near) * d))
        aim = segment_target(g_near, g_near + dev2.derivative(near) * k)

        def tracks():
            return [
                level_curve_track(dev2, *circle(g0, +1.0), seed2, max_step=0.08),
                level_curve_track(dev2, *aim, (near, g_near, 0, dev2.derivative(near)), first_step=1.0),
                level_curve_track(dev2, *segment_target(g0, g0 + 0.4 + 0.3j), seed2),
            ]

        refused = []
        shared = tracking._shared

        def watched(dev, panels):
            try:
                return shared(dev, panels)
            except ArithmeticError:
                refused.append(len(panels))
                raise

        monkeypatch.setattr(tracking, "_shared", watched)
        batched = lock_step(dev2, tracks())
        pooled, own = [n for n in refused if n > 1], [n for n in refused if n == 1]
        refused.clear()
        solo = _one_at_a_time(dev2, tracks())
        # the pooled call was refused, and then the failing track's panel
        # alone, as in its solo run
        assert pooled and own == refused == [1]
        assert list(batched[1].s) == [0.0, 0.5, 1.0]
        assert all(r.completed for r in batched)
        for got, want in zip(batched, solo):
            assert got.reason == want.reason
            for field in ("s", "w", "g", "branch"):
                assert _same_bits(getattr(got, field), getattr(want, field))

    def test_a_chord_ending_on_a_slit_fails_alone_and_pooled(self, dev2, seed2):
        # the chord's last crossing is its end, so it has no last piece and
        # no end value: it raises alone, and pooled with a healthy track it
        # raises into its own generator only, while the healthy track
        # completes bit for bit as it does alone
        sx, _ = dev2.slits[0]
        end = complex(sx, 0.2)

        def chord():
            return _chord_increment(dev2, end + 0.1 + 0.05j, end, 0, 1e-12)

        def caught(track):
            try:
                return (yield from track)
            except ArithmeticError as exc:
                return exc

        g0 = seed2[1]

        def healthy():
            return level_curve_track(dev2, *circle(g0, +1.0), seed2, max_step=0.08)

        with pytest.raises(ArithmeticError, match="slit"):
            _alone(dev2, chord())
        refused, pooled = lock_step(dev2, [caught(chord()), healthy()])
        solo = _alone(dev2, healthy())
        assert isinstance(refused, ArithmeticError) and "slit" in str(refused)
        assert pooled.completed and pooled.reason == solo.reason
        for field in ("s", "w", "g", "branch", "slope"):
            assert _same_bits(getattr(pooled, field), getattr(solo, field)), field

    def test_no_tracks(self, dev2):
        assert lock_step(dev2, []) == []

    def test_a_bug_in_the_pooled_panel_pass_propagates(self, dev2, seed2, monkeypatch):
        # only an ArithmeticError is a refused step; any other exception
        # is a bug and leaves the tracker instead of stalling the track
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(tracking, "gk15_level", broken)
        g0 = seed2[1]
        with pytest.raises(ValueError, match="broadcast"):
            track_level_curve(dev2, *circle(g0, +1.0), seed2, max_step=0.08)

    def test_a_lone_track_is_sent_its_own_requests(self, dev2, seed2, monkeypatch):
        # a track yields only panels (lo, hi, tol); a lone track's panel is
        # one array of its own 15 nodes and its hi, and no call is a single
        # point: the first slope is the start's
        g0 = seed2[1]
        requests, calls = [], []

        def recorded(track):
            request = next(track)
            try:
                while True:
                    requests.append(request)
                    request = track.send((yield request))
            except StopIteration as done:
                return done.value

        derivative = DevelopingMap.derivative

        def watched(self, w):
            calls.append(w)
            return derivative(self, w)

        monkeypatch.setattr(DevelopingMap, "derivative", watched)
        p, dp, d2p = segment_target(g0, g0 + 0.4 + 0.3j)
        [r] = lock_step(dev2, [recorded(level_curve_track(dev2, p, dp, d2p, seed2))])
        assert r.completed
        assert requests and all(type(w) is tuple and len(w) == 3 for w in requests)
        assert len(calls) == len(requests)
        for got, (lo, hi, _) in zip(calls, requests):
            nodes = gk15_nodes(np.array([lo]), np.array([hi]))[1].ravel()
            assert _same_bits(got, np.append(nodes, hi))

    def test_a_boundary_requests_only_panels_in_few_rounds(self, solved, monkeypatch):
        # the predictor's g'' comes from the connection, in scalar
        # arithmetic, so every request is a GK15 panel: a K = 1e6
        # boundary's corner approaches take 352 accepted steps in 135
        # rounds, about 2.2 chords a step
        rounds, steps = [], []
        outcomes = tracking._outcomes

        def counted(dev, panels):
            rounds.append(panels)
            return outcomes(dev, panels)

        monkeypatch.setattr(tracking, "_outcomes", counted)
        monkeypatch.setattr(limitset, "level_curve_track", _steps_counted(steps))
        rectangle_image_boundary(DevelopingMap.from_aspect(1e6, solved[1e6]))
        assert sum(steps) == 352
        assert len(rounds) <= 140
        assert all(type(r) is tuple and len(r) == 3 for panels in rounds for r in panels)

    @pytest.mark.parametrize("K", [2.0, 1e6])
    def test_every_carried_point_meets_the_corrector_gate(self, K, solved, monkeypatch):
        # each accepted (s, g) lies on its target to tol (1 + |p(s)|), and
        # each accepted step moves w by at most max_step
        tracks = []

        def recorded(dev, p, dp, d2p, start, **kwargs):
            r = yield from level_curve_track(dev, p, dp, d2p, start, **kwargs)
            tracks.append((p, kwargs["tol"], kwargs["max_step"], r))
            return r

        monkeypatch.setattr(limitset, "level_curve_track", recorded)
        rectangle_image_boundary(DevelopingMap.from_aspect(K, solved[K]))
        assert len(tracks) > 8 and all(r.completed for *_, r in tracks)
        for p, tol, max_step, r in tracks:
            for s, g in zip(r.s[1:].tolist(), r.g[1:].tolist()):
                target = complex(p(s))
                assert abs(g - target) <= tol * (1.0 + abs(target))
            assert np.all(np.abs(np.diff(r.w)) <= max_step)

    def test_pooling_keeps_the_nodes_in_fewer_calls(self, solved, monkeypatch):
        dev = DevelopingMap.from_aspect(1e3, solved[1e3])
        calls = _count_derivative_calls(monkeypatch)
        rectangle_image_boundary(dev)
        batched = list(calls)
        calls.clear()
        monkeypatch.setattr(limitset, "lock_step", _one_at_a_time)
        rectangle_image_boundary(dev)
        assert sum(batched) == sum(calls)
        assert 2 * len(batched) <= len(calls)


class TestPooledPanels:
    """A round's pooled first levels give each chord what integrate_segment
    gives its pieces alone, bit for bit, and evaluate no first level twice."""

    # (a, b): chords of one piece, of lengths from 1e-6 to 2.5; the last
    # three are refined past their first level, the last from near a
    # prevertex
    PIECES = [
        (Z1_K2 + 0.1, Z1_K2 + 0.1 + 1e-6j),
        (Z1_K2 + 0.1, Z1_K2 + 0.1 + 0.02j),
        (-0.4 + 0.2j, 0.6 - 0.3j),
        (2.5 - 1.0j, 2.0 + 1.5j),
        (Z1_K2 + 0.3, Z1_K2 + 0.02),
    ]

    # chords across one slit and across both, the middle pieces with an
    # end value that no step uses; the third is refined after its crossing
    CROSSING = [
        (1.5 + 0.3j, 1.0 + 0.2j),
        (1.5 + 0.3j, -1.5 + 0.1j),
        (-1.45 + 0.87j, 0.4 - 0.2j),
    ]

    @staticmethod
    def _random_pieces(n):
        # chords between the slits, of lengths from 1e-6 to 0.3
        rng = np.random.default_rng(5)
        lo = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        hi = lo + 10.0 ** rng.uniform(-6, -0.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        return list(zip(lo.tolist(), hi.tolist()))

    def test_pooled_panels_match_integrate_segment_alone(self, dev2, monkeypatch):
        tol = 1e-12
        pieces = self.PIECES + self._random_pieces(40)
        solo = []
        for lo, hi in pieces:
            sizes = []

            def counted(w):
                sizes.append(np.size(w))
                return dev2.derivative(w)

            solo.append((integrate_segment(counted, lo, hi, tol), sum(sizes), len(sizes)))
        levels = [n for *_, n in solo]
        assert [n > 1 for n in levels[:len(self.PIECES)]] == [False, False, True, True, True]
        lone = [_alone(dev2, _chord_increment(dev2, lo, hi, 0, tol)) for lo, hi in pieces]

        calls = _count_derivative_calls(monkeypatch)
        pooled = lock_step(dev2, [_chord_increment(dev2, lo, hi, 0, tol) for lo, hi in pieces])
        # one shared call for every first level and end node, then each
        # refined piece's own call for each of its later levels
        assert sum(calls) == sum(nodes for _, nodes, _ in solo) + len(pieces)
        assert len(calls) == 1 + sum(n - 1 for n in levels)

        for got, alone, (want, _, _), (_, hi) in zip(pooled, lone, solo, pieces):
            want_end = dev2.derivative(hi)
            for chord in (got, alone):
                assert _same_bits(chord[0], want) and chord[1] == 0
                assert _same_bits(chord[2], want_end)

    @pytest.mark.parametrize("m", [0, 1, -2])
    def test_chords_across_slits_pooled_match_alone(self, dev2, m, monkeypatch):
        # every piece's first level evaluates its hi, the middle pieces'
        # too: alone, one call of 15 nodes and the hi per piece
        tol = 1e-12
        calls = _count_derivative_calls(monkeypatch)
        lone = [_alone(dev2, _chord_increment(dev2, a, b, m, tol)) for a, b in self.CROSSING]
        lone_calls = list(calls)
        calls.clear()
        pooled = lock_step(dev2, [_chord_increment(dev2, a, b, m, tol) for a, b in self.CROSSING])
        pieces = [len(dev2.slit_crossings(a, b)) + 1 for a, b in self.CROSSING]
        assert pieces == [2, 3, 2]
        assert lone_calls.count(16) == sum(pieces)
        # a chord's pieces come one a round, so the first levels take
        # three rounds, pooled across the chords
        assert sum(calls) == sum(lone_calls)
        assert len(calls) == len(lone_calls) - sum(pieces) + 3
        for got, alone, (a, b) in zip(pooled, lone, self.CROSSING):
            assert got[1] == alone[1] == m + sum(dm for _, dm in dev2.slit_crossings(a, b))
            assert _same_bits(got[0], alone[0]) and _same_bits(got[2], alone[2])

    def test_a_piece_of_zero_length_makes_no_request(self, dev2):
        # a chord of zero length has no last piece, so no end value: its
        # first advance raises, before any request
        chord = _chord_increment(dev2, 1 + 1j, 1 + 1j, 0, 1e-12)
        with pytest.raises(ArithmeticError, match="rounds to a point"):
            next(chord)
