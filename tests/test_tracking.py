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
    _piece,
    _slope,
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
    w0 = Z1_K2 + 0.1
    return w0, complex(dev2.develop_at(w0))


class TestBasics:
    def test_trivial_aspect_is_identity(self):
        dev = DevelopingMap.from_aspect(1.0, 1 + 1j)
        p, dp = segment_target(2.0 + 0j, 2.0 + 1.5j)
        r = track_level_curve(dev, p, dp, 2.0 + 0j, g0=2.0 + 0j)
        assert r.completed
        gaps = [abs(r.w[i] - p(r.s[i])) for i in range(len(r.s))]
        assert max(gaps) < 1e-12

    def test_trivial_crossing_degenerate_slits(self):
        # at aspect 1 g' has no jump and the member no slits: a track
        # across the lines x = +-1 stays exact
        dev = DevelopingMap.from_aspect(1.0, 1 + 1j)
        p, dp = segment_target(2 + 0.5j, -2 + 0.5j)
        r = track_level_curve(dev, p, dp, 2 + 0.5j, g0=2 + 0.5j)
        assert r.completed
        assert max(abs(r.w[i] - p(r.s[i])) for i in range(len(r.s))) < 1e-12

    def test_limit_kind_tracks_without_branches(self):
        lim = DevelopingMap.merged_limit(1.9132015196, 0.3470332389)
        w0 = 3.0 + 0j
        g0 = complex(lim.develop_at(w0))
        p, dp = segment_target(g0, g0 + 1.2j)
        r = track_level_curve(lim, p, dp, w0, g0=g0)
        assert r.completed
        assert (r.branch == 0).all()
        assert abs(complex(lim.develop_at(r.w[-1])) - p(1.0)) < 1e-9

    def test_endpoint_develops_to_target(self, dev2, seed2):
        w0, g0 = seed2
        p, dp = segment_target(g0, g0 + 0.4 + 0.3j)
        r = track_level_curve(dev2, p, dp, w0, g0=g0)
        assert r.completed
        assert abs(complex(dev2.develop_at(r.w[-1])) - p(1.0)) < 1e-9
        assert (r.branch == 0).all()
        assert np.abs(np.diff(r.w)).sum() > 0

    def test_wrong_seed_rejected(self, dev2, seed2):
        w0, g0 = seed2
        p, dp = segment_target(g0 + 0.3, g0 + 1)
        with pytest.raises(ValueError):
            track_level_curve(dev2, p, dp, w0, g0=g0)


class TestHolonomyLoops:
    """Developed-plane circles around the corner image.

    One counterclockwise circuit of the corner value must lift to one
    circuit of the prevertex: the branch exponent drops by 1, the spiral
    widens by the aspect, and the principal developed value at the new
    point is the corner holonomy (ratio K, fixed point the corner)
    applied to the start value. All three are exact statements.
    """

    def test_ccw_loop(self, dev2, seed2):
        w0, g0 = seed2
        p, dp = circle(g0, +1.0)
        r = track_level_curve(dev2, p, dp, w0, g0=g0, max_step=0.08)
        assert r.completed
        assert r.branch[-1] == -1
        assert abs(r.g[-1] - p(1.0)) < 1e-9
        predicted = CORNER + 2.0 * (g0 - CORNER)
        assert abs(complex(dev2.develop_at(r.w[-1])) - predicted) < 1e-9
        ratio = abs(r.w[-1] - Z1_K2) / abs(w0 - Z1_K2)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_cw_loop(self, dev2, seed2):
        w0, g0 = seed2
        p, dp = circle(g0, -1.0)
        r = track_level_curve(dev2, p, dp, w0, g0=g0, max_step=0.08)
        assert r.completed
        assert r.branch[-1] == +1
        predicted = CORNER + 0.5 * (g0 - CORNER)
        assert abs(complex(dev2.develop_at(r.w[-1])) - predicted) < 1e-9
        ratio = abs(r.w[-1] - Z1_K2) / abs(w0 - Z1_K2)
        assert ratio == pytest.approx(0.5, rel=0.05)

    def test_two_turns(self, dev2):
        w0 = Z1_K2 + 0.05
        g0 = complex(dev2.develop_at(w0))
        p, dp = circle(g0, -2.0)
        r = track_level_curve(dev2, p, dp, w0, g0=g0, max_step=0.006, first_step=1 / 400)
        assert r.completed
        assert r.branch[-1] == +2
        predicted = CORNER + 0.25 * (g0 - CORNER)
        assert abs(complex(dev2.develop_at(r.w[-1])) - predicted) < 1e-9

    def test_loop_composition_returns_home(self, dev2, seed2):
        # ccw then cw around the same developed circle: back to the seed
        w0, g0 = seed2
        p, dp = circle(g0, +1.0)
        out = track_level_curve(dev2, p, dp, w0, g0=g0, max_step=0.08)
        p2, dp2 = circle(g0, -1.0)
        back = track_level_curve(
            dev2, p2, dp2, out.w[-1], g0=out.g[-1], branch0=out.branch[-1], max_step=0.08
        )
        assert back.completed
        assert back.branch[-1] == 0
        assert abs(back.w[-1] - w0) < 1e-8


class TestStepControl:
    def test_budget_exhaustion_reports_stall(self, dev2, seed2):
        w0, g0 = seed2
        p, dp = circle(g0, +1.0)
        r = track_level_curve(dev2, p, dp, w0, g0=g0, max_step=0.08, max_steps=3)
        assert r.status == "stalled"
        assert "budget" in r.reason
        assert len(r.w) == 4
        assert 0 < np.abs(np.diff(r.w)).sum() < 1

    def test_into_the_prevertex(self, dev2, seed2):
        # the target ends at the singular value itself; the track must
        # either stall cleanly or end next to the prevertex, never raise
        w0, g0 = seed2
        p, dp = segment_target(g0, CORNER)
        r = track_level_curve(dev2, p, dp, w0, g0=g0, max_step=0.004, max_steps=2000)
        if r.completed:
            assert abs(r.w[-1] - Z1_K2) < 1e-6
        else:
            assert r.reason
        assert len(r.w) > 5

    def test_monotone_parameter(self, dev2, seed2):
        w0, g0 = seed2
        p, dp = segment_target(g0, g0 + 0.5j)
        r = track_level_curve(dev2, p, dp, w0, g0=g0)
        assert (np.diff(r.s) > 0).all()
        assert r.s[0] == 0.0 and r.s[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_slope_retries_the_step(self, dev2, seed2, monkeypatch):
        # a slope derivative of exactly zero divides the target's Python
        # complex derivative by zero: a ZeroDivisionError, which fails the
        # step like any ArithmeticError, where a numpy scalar would only warn
        w0, g0 = seed2
        calls = []
        derivative = DevelopingMap.derivative

        def zero_at_first_slope(self, w):
            calls.append(w)
            # a lone track's first call is its first slope, a single point
            return 0j if len(calls) == 1 else derivative(self, w)

        monkeypatch.setattr(DevelopingMap, "derivative", zero_at_first_slope)
        p, dp = circle(g0, +0.25)
        r = track_level_curve(dev2, p, dp, w0, g0=g0, max_step=0.08, first_step=0.1)
        # the refused slope is evaluated again, not carried
        assert calls[0] == calls[1] == w0
        assert r.completed
        assert r.s[1] == 0.05
        assert abs(complex(dev2.develop_at(r.w[-1])) - p(1.0)) < 1e-9

    def test_targets_are_python_complex(self):
        for p, dp in (
            circle(CORNER + 0.3, +1.0),
            arc_target(np.complex128(CORNER), np.float64(0.5), np.float64(0.0), 3.0),
            limitset._ray_target(np.complex128(CORNER), 0.5, 1.0, 1e-3),
        ):
            for s in (0.0, 0.37, 1.0):
                assert type(p(s)) is complex and type(dp(s)) is complex


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
    # it moves through (the predictor's and mostly one Newton chord),
    # whose end value serves as the next Newton slope or the next step's
    # slope; only a track's first slope is a call of its own. These tracks
    # take 2.3 calls per step, where RK4 stages as single points take 5.3-5.8

    def test_corner_approach(self, monkeypatch):
        dev = DevelopingMap.from_aspect(1000.0, Z1_K1000)
        w0 = Z1_K1000 + 0.2
        g0 = complex(dev.develop_at(w0))
        p, dp = segment_target(g0, CORNER + 1e-3 * (g0 - CORNER) / abs(g0 - CORNER))
        calls = _count_derivative_calls(monkeypatch)
        r = track_level_curve(dev, p, dp, w0, g0=g0, max_step=0.004, max_steps=4000)
        steps = len(r.s) - 1
        assert r.completed and steps > 50
        assert len(calls) <= 3.0 * steps

    def test_limit_ray(self, monkeypatch):
        lim = DevelopingMap.merged_limit(1.9132015196, 0.3470332389)
        w0 = 3.0 + 0j
        g0 = complex(lim.develop_at(w0))
        p, dp = segment_target(g0, g0 + 1.2j)
        calls = _count_derivative_calls(monkeypatch)
        r = track_level_curve(lim, p, dp, w0, g0=g0)
        steps = len(r.s) - 1
        assert r.completed and steps > 10
        assert len(calls) <= 3.0 * steps


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
        assert np.complex128(gp).tobytes() == np.complex128(_slope(dev2, b, mm)).tobytes()

    def test_chord_ending_on_a_slit_leaves_the_end_to_the_point_evaluation(self, dev2):
        sx, _ = dev2.slits[0]
        end = complex(sx, 0.2)
        inc, mm, gp = _alone(dev2, _chord_increment(dev2, end + 0.1 + 0.05j, end, 0, 1e-12))
        assert gp is None
        with pytest.raises(ArithmeticError, match="slit"):
            _slope(dev2, end, mm)
        # on the slit's line but clear of the slit, the point has its value
        clear = complex(sx, 2.0)
        inc, mm, gp = _alone(dev2, _chord_increment(dev2, clear + 0.1 + 0.05j, clear, 0, 1e-12))
        assert gp is None and _slope(dev2, clear, mm) == dev2.derivative(clear)

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
        w0, g0 = seed2
        z = dev2.poles[0]
        # off the slit's line, 1e-3 from the prevertex: the first step's
        # tangent ends 1e-14 from it, inside the pole clearance, so that
        # chord's panel is refused and the track retries at half the step
        off = 0.6 + 0.8j
        near = z + 1e-3 * off
        g_near = complex(dev2.develop_at(near))
        aim = segment_target(g_near, g_near - dev2.derivative(near) * (near - z - 1e-14 * off))

        def tracks():
            return [
                level_curve_track(dev2, *circle(g0, +1.0), w0, g0=g0, max_step=0.08),
                level_curve_track(dev2, *aim, near, g0=g_near, first_step=1.0),
                level_curve_track(dev2, *segment_target(g0, g0 + 0.4 + 0.3j), w0, g0=g0),
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
            assert (got.status, got.reason) == (want.status, want.reason)
            for field in ("s", "w", "g", "branch"):
                assert _same_bits(getattr(got, field), getattr(want, field))

    def test_no_tracks(self, dev2):
        assert lock_step(dev2, []) == []

    def test_a_bug_in_the_pooled_panel_pass_propagates(self, dev2, seed2, monkeypatch):
        # only an ArithmeticError is a refused step; any other exception
        # is a bug and leaves the tracker instead of stalling the track
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(tracking, "gk15_level", broken)
        w0, g0 = seed2
        with pytest.raises(ValueError, match="broadcast"):
            track_level_curve(dev2, *circle(g0, +1.0), w0, g0=g0, max_step=0.08)

    def test_a_lone_track_is_sent_its_own_requests(self, dev2, seed2, monkeypatch):
        # a track yields only panels (4-tuples); a lone track's panel is one
        # array of its own 15 nodes and its end node, and the only single
        # point is the track's first slope, evaluated in the track
        w0, g0 = seed2
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
        p, dp = segment_target(g0, g0 + 0.4 + 0.3j)
        [r] = lock_step(dev2, [recorded(level_curve_track(dev2, p, dp, w0, g0=g0))])
        assert r.completed
        assert requests and all(type(w) is tuple and len(w) == 4 for w in requests)
        assert calls[0] == w0 and np.ndim(calls[0]) == 0
        assert len(calls) == 1 + len(requests)
        for got, (lo, hi, _, end) in zip(calls[1:], requests):
            nodes = gk15_nodes(np.array([lo]), np.array([hi]))[1].ravel()
            assert _same_bits(got, np.append(nodes, () if end is None else end))
        assert all(end is not None for *_, end in requests)

    def test_a_boundary_requests_only_panels_in_few_rounds(self, solved, monkeypatch):
        # the predictor evaluates no derivative, so every request is a
        # GK15 panel: a K = 1e6 boundary's corner approaches take 180
        # rounds, where RK4 stages requested as single points take 328
        rounds = []
        outcomes = tracking._outcomes

        def counted(dev, panels):
            rounds.append(panels)
            return outcomes(dev, panels)

        monkeypatch.setattr(tracking, "_outcomes", counted)
        rectangle_image_boundary(DevelopingMap.from_aspect(1e6, solved[1e6]))
        assert len(rounds) <= 220
        assert all(type(r) is tuple and len(r) == 4 for panels in rounds for r in panels)

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
    """A round's pooled first levels give each piece what integrate_segment
    gives it alone, bit for bit, and evaluate no first level twice."""

    # (lo, hi, end): lengths from 1e-6 to 2.5, with and without an end
    # node; the last three are refined past their first level, the last
    # from near a prevertex
    PIECES = [
        (Z1_K2 + 0.1, Z1_K2 + 0.1 + 1e-6j, None),
        (Z1_K2 + 0.1, Z1_K2 + 0.1 + 0.02j, Z1_K2 + 0.1 + 0.02j),
        (-0.4 + 0.2j, 0.6 - 0.3j, None),
        (2.5 - 1.0j, 2.0 + 1.5j, 2.0 + 1.5j),
        (Z1_K2 + 0.3, Z1_K2 + 0.02, Z1_K2 + 0.02),
    ]

    @staticmethod
    def _random_pieces(n):
        # chords between the slits, of lengths from 1e-6 to 0.3
        rng = np.random.default_rng(5)
        lo = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        hi = lo + 10.0 ** rng.uniform(-6, -0.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        return [(a, b, b if i % 2 else None) for i, (a, b) in enumerate(zip(lo, hi))]

    def test_pooled_panels_match_integrate_segment_alone(self, dev2, monkeypatch):
        tol = 1e-12
        pieces = self.PIECES + self._random_pieces(40)
        solo, want_ends = [], []
        for lo, hi, end in pieces:
            sizes = []

            def counted(w):
                sizes.append(np.size(w))
                return dev2.derivative(w)

            solo.append((integrate_segment(counted, lo, hi, tol), sum(sizes), len(sizes)))
            want_ends.append(None if end is None else dev2.derivative(end))
        levels = [n for *_, n in solo]
        assert [n > 1 for n in levels[:len(self.PIECES)]] == [False, False, True, True, True]
        lone = [lock_step(dev2, [_piece(dev2, lo, hi, tol, end)])[0] for lo, hi, end in pieces]

        calls = _count_derivative_calls(monkeypatch)
        pooled = lock_step(dev2, [_piece(dev2, lo, hi, tol, end) for lo, hi, end in pieces])
        # one shared call for every first level and end node, then each
        # refined piece's own call for each of its later levels
        ends = sum(end is not None for *_, end in pieces)
        assert sum(calls) == sum(nodes for _, nodes, _ in solo) + ends
        assert len(calls) == 1 + sum(n - 1 for n in levels)

        for got, alone, (want, _, _), want_end in zip(pooled, lone, solo, want_ends):
            assert _same_bits(got[0], want) and _same_bits(alone[0], want)
            if want_end is None:
                assert got[1] is None and alone[1] is None
            else:
                assert _same_bits(complex(got[1]), want_end)
                assert _same_bits(complex(alone[1]), want_end)

    def test_a_piece_of_zero_length_makes_no_request(self, dev2):
        assert lock_step(dev2, [_piece(dev2, 1 + 1j, 1 + 1j, 1e-12, 1 + 1j)]) == [(0j, None)]
