"""Boundary clouds, limit configuration, and Hausdorff comparisons."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import cKDTree

import affsurf.limitset as limitset
from affsurf import checks
from affsurf.develop import DevelopingMap
from affsurf.embedding import _window
from affsurf.limitset import (
    _axis_anchor_imag,
    _axis_anchor_real,
    _brent,
    convergence_report,
    hausdorff_distance,
    limit_image_cloud,
    rectangle_image_boundary,
    resample_curve,
)
from affsurf.solver import continuation_sweep, extract_limit, solve_prevertex
from affsurf.surface import SPIRAL_SEAM
from affsurf.tracking import level_curve_track, lock_step, track_level_curve

Z1_K2 = 1.248075111571 + 0.767644410562j
Z1_K1000 = 1.883446848935 + 0.157918326981j
X0 = 1.9132015196
TAU = 0.3470332389

# distances frozen from the oracle run recorded in the build notes
D_SQUARE_TO_LIMIT = 1.1700619534689296
D_AT_1E2 = 0.14359329516174188
D_AT_1E3 = 0.08894993927610696


@pytest.fixture(scope="module")
def limit_cloud():
    return limit_image_cloud(X0, TAU)


@pytest.fixture(scope="module")
def square_cloud():
    return rectangle_image_boundary(DevelopingMap.from_aspect(1.0, 1 + 1j))


@pytest.fixture(scope="module")
def cloud2():
    return rectangle_image_boundary(DevelopingMap.from_aspect(2.0, Z1_K2))


@pytest.fixture(scope="module")
def sweep():
    grid = sorted({10.0**j for j in range(1, 9)} | {1.0, 100.0, 1000.0})
    return continuation_sweep(grid)


class TestResample:
    def test_uniform_spacing(self):
        t = np.linspace(0.0, math.pi, 40)
        arc = np.exp(1j * t)
        out = resample_curve(arc, 0.01)
        gaps = np.abs(np.diff(out))
        assert gaps.max() <= 0.0101
        assert gaps.min() >= 0.5 * gaps.max()
        assert abs(out[0] - arc[0]) < 1e-14
        assert abs(out[-1] - arc[-1]) < 1e-14

    def test_single_point_passthrough(self):
        out = resample_curve(np.array([1 + 2j]), 0.1)
        assert out.shape == (1,)
        assert out[0] == 1 + 2j

    def test_degenerate_curve_collapses(self):
        out = resample_curve(np.array([1j, 1j, 1j]), 0.1)
        assert out.shape == (1,)


class TestHausdorff:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert hausdorff_distance(a, a) == 0.0

    def test_singletons(self):
        assert hausdorff_distance(np.array([0j]), np.array([3 + 0j])) == 3.0

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        b = 2 * rng.standard_normal(40) + 1j * rng.standard_normal(40)
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        b = rng.standard_normal(35) + 1j * rng.standard_normal(35)
        c = 17.0 - 4.2j
        assert abs(hausdorff_distance(a + c, b + c) - hausdorff_distance(a, b)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        b = rng.uniform(-3, 3, 25) + 1j * rng.uniform(-3, 3, 25)
        c = rng.standard_normal(30) * 2j + rng.standard_normal(30)
        dab = hausdorff_distance(a, b)
        dbc = hausdorff_distance(b, c)
        dac = hausdorff_distance(a, c)
        assert dac <= dab + dbc + 1e-12

    def test_empty_rejected(self):
        good = np.array([0j, 1 + 1j])
        bad = [np.array([], dtype=complex)] + [
            np.array([0j, v]) for v in (complex(math.nan, 0), complex(0, math.inf), -math.inf)
        ]
        for pts in bad:
            with pytest.raises(ValueError):
                hausdorff_distance(pts, good)
            with pytest.raises(ValueError):
                hausdorff_distance(good, pts)


def _kdtree_hausdorff(a, b):
    """Reference value: the k-d tree query the nearest-neighbour pass replaces."""
    pa = np.column_stack([a.real, a.imag])
    pb = np.column_stack([b.real, b.imag])
    return float(max(cKDTree(pb).query(pa)[0].max(), cKDTree(pa).query(pb)[0].max()))


def _cloud(kind, n, rng):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "duplicates":
        return np.round(z, 1)
    if kind == "single":
        return z[:1]
    if kind == "equal_x":
        return 0.5 + 1j * z.imag
    if kind == "equal_y":
        return z.real - 2.0j
    if kind == "clusters":
        return z * 1e-3 + rng.choice([0.0, 1e3, -7e2j], n)
    if kind == "columns":
        # vertical lines in shuffled order: x-rank neighbours are poor bounds
        return rng.choice([-1.0, 0.0, 2.5], n) + 1j * rng.uniform(-50.0, 50.0, n)
    return z


_CLOUD_KINDS = ("random", "duplicates", "single", "equal_x", "equal_y", "clusters", "columns")


class TestHausdorffMatchesKDTree:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kinds=st.tuples(st.sampled_from(_CLOUD_KINDS), st.sampled_from(_CLOUD_KINDS)),
        sizes=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-9, 1e6]),
        shift=st.sampled_from([0j, 1e3 - 2e3j]),
    )
    def test_same_float_as_kdtree(self, kinds, sizes, seed, scale, shift):
        rng = np.random.default_rng(seed)
        a = _cloud(kinds[0], sizes[0], rng) * scale + shift
        b = _cloud(kinds[1], sizes[1], rng) * scale + shift
        assert hausdorff_distance(a, b) == _kdtree_hausdorff(a, b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kinds=st.tuples(st.sampled_from(_CLOUD_KINDS), st.sampled_from(_CLOUD_KINDS)),
        sizes=st.tuples(st.integers(1, 1500), st.integers(1, 1500)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_directed_pass_is_the_brute_force_maximum(self, kinds, sizes, seed):
        # the block pruning may skip work, never a query that sets the maximum
        rng = np.random.default_rng(seed)
        q, t = _cloud(kinds[0], sizes[0], rng), _cloud(kinds[1], sizes[1], rng)
        brute = ((t.real - q.real[:, None]) ** 2 + (t.imag - q.imag[:, None]) ** 2).min(axis=1).max()
        slack = 16 * np.finfo(float).eps * max(np.abs(q.view(float)).max(), np.abs(t.view(float)).max())
        assert limitset._farthest_nearest_sq(q.real, q.imag, t.real, t.imag, slack) == brute

    def test_box_edges_absorb_rounding(self):
        # 3 - (-1e-17) rounds to 3, so an unpadded box edge at 3 - 3 = 0
        # would leave out the only target
        for a, b in ((3.0, -1e-17), (3j, -1e-17j), (1e6 + 0j, 1e6 - 3e-10 + 4e-10j)):
            pa, pb = np.array([a], dtype=complex), np.array([b], dtype=complex)
            assert hausdorff_distance(pa, pb) == _kdtree_hausdorff(pa, pb)

    def test_same_float_on_boundary_clouds(self, square_cloud, cloud2, limit_cloud):
        pts = cloud2.points
        pairs = [
            (square_cloud.points, limit_cloud.points),
            (pts, limit_cloud.points),
            (pts, np.conj(pts)),
            (pts, -np.conj(pts)),
        ]
        for a, b in pairs:
            assert hausdorff_distance(a, b) == _kdtree_hausdorff(a, b)


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def _assert_brent_matches_brentq(f, a, b, xtol, fa=None, fb=None):
    for x, fx in ((a, fa), (b, fb)):
        assert fx is None or fx == f(x)
    g, ours = _counted(f)
    h, theirs = _counted(f)
    assert _brent(g, a, b, xtol, fa, fb) == float(brentq(h, a, b, xtol=xtol))
    # each bracket value the caller passes saves one call
    assert ours[0] == theirs[0] - (fa is not None) - (fb is not None)


class TestBrent:
    MAPS = {
        "K=2": DevelopingMap.from_aspect(2.0, Z1_K2),
        "K=1000": DevelopingMap.from_aspect(1000.0, Z1_K1000),
        "limit": DevelopingMap.merged_limit(X0, TAU),
    }

    @pytest.mark.parametrize("name", list(MAPS))
    @pytest.mark.parametrize("anchor", [_axis_anchor_real, _axis_anchor_imag])
    @pytest.mark.parametrize("side", [1, -1])
    def test_axis_anchors_match_brentq(self, monkeypatch, name, anchor, side):
        # side 1 checks the solved right or upper crossing. Side -1 solves
        # the left or lower crossing independently, on the reflected
        # bracket, which is where a bracket search of that side ends, and
        # finds the anchor's mirror bit for bit
        solves = []

        def recording(f, a, b, xtol, fa=None, fb=None):
            solves.append((f, a, b, xtol, fa, fb))
            return _brent(f, a, b, xtol, fa, fb)

        monkeypatch.setattr(limitset, "_brent", recording)
        dev = self.MAPS[name]
        root, _ = anchor(dev)
        assert len(solves) == 1
        f, a, b, xtol, fa, fb = solves[0]
        if anchor is _axis_anchor_real:
            # the bracket search has evaluated both ends already
            assert None not in (fa, fb)
        if side == 1:
            _assert_brent_matches_brentq(f, a, b, xtol, fa, fb)
            return
        if anchor is _axis_anchor_real:
            mirror = lambda u: complex(dev.develop_at(complex(u))).real + 1.0
        else:
            mirror = lambda v: complex(dev.develop_at(complex(0.0, v))).imag + 1.0
        _assert_brent_matches_brentq(mirror, -b, -a, xtol)
        low = _brent(mirror, -b, -a, xtol)
        if dev.kind == "limit" and anchor is _axis_anchor_imag:
            # the limit cloud takes no imaginary-axis anchor; there Im g
            # climbs so steeply that the two solves part in the last digits
            assert abs(low + root) <= xtol
        else:
            assert low == -root

    SYNTHETIC = (
        (lambda x: math.tanh(x - 0.3), -4.0, 4.0),
        (lambda x: math.exp(x) - 5.0, -4.0, 4.0),
        (lambda x: x * x - 2.0, 0.0, 4.0),
        (lambda x: math.atan(1e6 * (x - 1.7)), -4.0, 4.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x**5 - x - 1.0, 1.0, 2.0),
        (lambda x: x, 0.0, 1.0),
        (lambda x: x - 1.0, 0.0, 1.0),
        # roots far from 0, where the relative tolerance sets the stop
        (lambda x: math.log(x) - 7.0, 1.0, 1e4),
        (lambda x: math.tanh(1e-3 * (x - 31415.9)), 1e4, 1e5),
    )

    @pytest.mark.parametrize("case", range(len(SYNTHETIC)))
    @pytest.mark.parametrize("xtol", [1e-4, 2e-12, 1e-300])
    def test_synthetic_roots_match_brentq(self, case, xtol):
        _assert_brent_matches_brentq(*self.SYNTHETIC[case], xtol)

    def test_failures_raise_arithmetic_error(self):
        with pytest.raises(ArithmeticError, match=r"\[1.0, 2.0\]: no sign change"):
            _brent(lambda x: x, 1.0, 2.0, 1e-13)
        with pytest.raises(ArithmeticError, match="is nan"):
            _brent(lambda x: math.nan if x > 0.5 else x - 0.6, 0.0, 1.0, 1e-13)
        # a triple root is still bisecting at 1e-13 when the iterations run
        # out; brentq gives up after the same 102 calls
        g, calls = _counted(lambda x: (x - 0.3) ** 3)
        with pytest.raises(ArithmeticError, match="no convergence"):
            _brent(g, -4.0, 4.0, 1e-13)
        assert calls[0] == 102


class TestSquareBaseline:
    def test_points_lie_on_unit_square(self, square_cloud):
        pts = square_cloud.points
        residual = np.abs(np.maximum(np.abs(pts.real), np.abs(pts.imag)) - 1.0)
        assert residual.max() < 1e-9

    def test_corners_covered(self, square_cloud):
        pts = square_cloud.points
        for corner in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j):
            assert np.abs(pts - corner).min() < 1e-12

    def test_distance_to_limit_frozen(self, square_cloud, limit_cloud):
        d = hausdorff_distance(square_cloud.points, limit_cloud.points)
        assert d == pytest.approx(D_SQUARE_TO_LIMIT, rel=1e-3)

    def test_limit_kind_rejected(self):
        lim = DevelopingMap.merged_limit(X0, TAU)
        with pytest.raises(ValueError):
            rectangle_image_boundary(lim)


class TestFiniteBoundary:
    def test_piece_inventory(self, cloud2):
        names = set(cloud2.pieces)
        assert "prevertices" in names
        assert sum(1 for n in names if n != "prevertices") == 8

    def test_prevertices_included(self, cloud2):
        dev = DevelopingMap.from_aspect(2.0, Z1_K2)
        pts = cloud2.points
        for z in dev.poles:
            assert np.abs(pts - z).min() < 1e-12

    def test_reflection_symmetries(self, cloud2):
        pts = cloud2.points
        assert hausdorff_distance(pts, np.conj(pts)) < 1e-6
        assert hausdorff_distance(pts, -np.conj(pts)) < 1e-6

    def test_sides_joined_at_prevertices(self, cloud2):
        # each tracked half-side ends within its clip scale of a prevertex
        dev = DevelopingMap.from_aspect(2.0, Z1_K2)
        for name, arr in cloud2.pieces.items():
            if name == "prevertices":
                continue
            endgap = min(abs(complex(arr[-1]) - z) for z in dev.poles)
            assert endgap < 0.05

    def test_stalled_corner_approach_is_noted(self, cloud2, monkeypatch):
        # completed approaches leave only the prevertex note
        assert set(cloud2.notes) == {"prevertices"}

        def stalled(*args, **kwargs):
            r = yield from level_curve_track(*args, **kwargs)
            return dataclasses.replace(r, status="stalled", reason="forced stall")

        monkeypatch.setattr("affsurf.limitset.level_curve_track", stalled)
        cloud = rectangle_image_boundary(DevelopingMap.from_aspect(2.0, Z1_K2))
        halves = [name for name in cloud.pieces if name != "prevertices"]
        assert len(halves) == 8
        for name in halves:
            assert cloud.notes[name] == "partial: forced stall"

    def test_two_anchor_solves_seed_four_sides(self, monkeypatch):
        # the right and upper crossings are solved; the left and lower
        # sides start at their mirrors
        calls = []

        def counted(*args):
            calls.append(args)
            return _brent(*args)

        monkeypatch.setattr(limitset, "_brent", counted)
        cloud = rectangle_image_boundary(DevelopingMap.from_aspect(2.0, Z1_K2), spacing=0.02)
        assert len(calls) == 2
        start = {name: pts[0] for name, pts in cloud.pieces.items()}
        assert start["left_to_ul"] == -start["right_to_ur"]
        assert start["bottom_to_br"] == -start["top_to_ur"]

    def test_anchor_solves_hand_back_their_values(self, monkeypatch):
        # the right and upper sides start from g as the solves left it;
        # only the left and lower mirrors are developed outside them
        calls = {"develop_at": 0, "in_anchors": 0}
        develop_at = DevelopingMap.develop_at

        def counted_develop_at(self, *args, **kwargs):
            calls["develop_at"] += 1
            return develop_at(self, *args, **kwargs)

        def counted(anchor):
            def solve(dev):
                before = calls["develop_at"]
                root = anchor(dev)
                calls["in_anchors"] += calls["develop_at"] - before
                return root
            return solve

        monkeypatch.setattr(DevelopingMap, "develop_at", counted_develop_at)
        for name in ("_axis_anchor_real", "_axis_anchor_imag"):
            monkeypatch.setattr(limitset, name, counted(getattr(limitset, name)))
        rectangle_image_boundary(DevelopingMap.from_aspect(2.0, Z1_K2), spacing=0.02)
        assert calls["develop_at"] == calls["in_anchors"] + 2

    @pytest.mark.parametrize("K, bound", [(1e2, 1.6e-3), (1e6, 1.85e-3)])
    def test_boundary_is_near_a_finer_tracked_one(self, monkeypatch, K, bound):
        # a reference with every stage's step cap divided by 8, both
        # resampled far finer than the default spacing: each piece lies
        # within 1.519e-3 (K = 1e2) and 1.762e-3 (1e6) of its reference,
        # with and without the step carried between stages
        dev = DevelopingMap.from_aspect(K, solve_prevertex(K).prevertex)
        cloud = rectangle_image_boundary(dev, spacing=5e-5)

        def finer(*args, **kwargs):
            return (yield from level_curve_track(*args, **{**kwargs, "max_step": kwargs["max_step"] / 8}))

        monkeypatch.setattr(limitset, "level_curve_track", finer)
        reference = rectangle_image_boundary(dev, spacing=5e-5)
        assert list(cloud.pieces) == list(reference.pieces)
        deviation = max(hausdorff_distance(pts, reference.pieces[name]) for name, pts in cloud.pieces.items())
        assert deviation <= bound

    def test_stages_start_at_the_step_reached(self, monkeypatch):
        # each corner approach's later stages start at the step its
        # previous stage grew to: at K = 1e6 its 80 stages take 352
        # accepted steps, and 804 when each ramps up from 0.02 again.
        # Stage 1 is the same track either way.
        dev = DevelopingMap.from_aspect(1e6, solve_prevertex(1e6).prevertex)

        def recorded(forced):
            tracks = []

            def recording(*args, **kwargs):
                if forced:
                    kwargs["first_step"] = 0.02
                i = len(tracks)
                tracks.append(None)
                tracks[i] = yield from level_curve_track(*args, **kwargs)
                return tracks[i]

            monkeypatch.setattr(limitset, "level_curve_track", recording)
            rectangle_image_boundary(dev)
            return tracks

        carried, ramped = recorded(False), recorded(True)
        assert sum(len(r.s) - 1 for r in carried) <= 400
        # lock_step's first round starts every approach's stage 1, in order
        for one, other in zip(carried[:8], ramped[:8]):
            assert np.array_equal(one.w, other.w)
            assert np.array_equal(one.g, other.g)

    @pytest.mark.parametrize("K", [1e16, 1e300])
    def test_corner_stages_stop_at_float64_resolution(self, monkeypatch, K):
        # the top and bottom sides are clipped at corner_clip/K, but no
        # stage ends within 2 ulp of the corner: 120 stages from K = 1e12
        # on, where the clip alone would run 148 at 1e16 and 2,036 at 1e300
        stages = []

        def counted(*args, **kwargs):
            stages.append(kwargs["max_step"])
            return (yield from level_curve_track(*args, **kwargs))

        monkeypatch.setattr(limitset, "level_curve_track", counted)
        cloud = rectangle_image_boundary(DevelopingMap.from_aspect(K, solve_prevertex(K).prevertex))
        assert cloud.incomplete == {}
        assert len(stages) <= 130

    @pytest.mark.parametrize("K", [1e2, 1e6, None])
    def test_every_accepted_move_is_within_max_step(self, monkeypatch, K):
        # max_step caps each accepted move |w_new - w|, checked after the
        # Newton correction, on the corner approaches and (K None) on the
        # limit cloud's mouths and rays; the predictor chord alone stays
        # under it while the corrected point may not
        moves = []

        def capped(*args, **kwargs):
            r = yield from level_curve_track(*args, **kwargs)
            moves.append(np.abs(np.diff(r.w)).max(initial=0.0) / kwargs["max_step"])
            return r

        monkeypatch.setattr(limitset, "level_curve_track", capped)
        if K is None:
            limit_image_cloud(X0, TAU)
        else:
            rectangle_image_boundary(DevelopingMap.from_aspect(K, solve_prevertex(K).prevertex))
        assert moves and max(moves) <= 1.0

    def test_aspect_1e10_completes(self):
        # the top and bottom sides start at axis crossings near
        # 1.44/K = 1.4e-10, below the 1e-9 that brackets them up to K = 1e7
        dev = DevelopingMap.from_aspect(1e10, solve_prevertex(1e10).prevertex)
        cloud = rectangle_image_boundary(dev)
        assert len(cloud.pieces) == 9
        assert cloud.incomplete == {}


class TestLimitCloud:
    def test_singular_points_present(self, limit_cloud):
        pts = limit_cloud.points
        assert np.abs(pts - X0).min() == 0.0
        assert np.abs(pts + X0).min() == 0.0

    def test_reflection_symmetries(self, limit_cloud):
        pts = limit_cloud.points
        assert hausdorff_distance(pts, np.conj(pts)) < 1e-6
        assert hausdorff_distance(pts, -np.conj(pts)) < 1e-6

    def test_glued_edge_develops_real(self, limit_cloud):
        edge = limit_cloud.pieces["glued_edge"]
        assert np.abs(edge.imag).max() == 0.0
        assert edge.real.min() == pytest.approx(-X0, abs=1e-3)
        assert edge.real.max() == pytest.approx(X0, abs=1e-3)

    def test_configuration_is_bounded(self, limit_cloud):
        pts = limit_cloud.points
        assert np.abs(pts).max() < 3.0
        assert np.abs(pts.imag).max() < 0.5

    def test_mouths_anchor_on_real_axis(self, limit_cloud):
        for name in ("mouth_right_upper", "mouth_left_upper"):
            first = complex(limit_cloud.pieces[name][0])
            assert abs(first.imag) < 1e-12
            assert abs(first.real) > X0

    def test_stalled_mouth_track_is_noted(self, monkeypatch):
        # the mouths and rays run through limitset's level_curve_track; the
        # bridges go through tracking unpatched and reach every stop
        def stalled(*args, **kwargs):
            r = yield from level_curve_track(*args, **kwargs)
            return dataclasses.replace(r, status="stalled", reason="forced stall")

        monkeypatch.setattr("affsurf.limitset.level_curve_track", stalled)
        cloud = limit_image_cloud(X0, TAU, theta_max=2 * math.pi)
        for side in ("right", "left"):
            for updown in ("upper", "lower"):
                assert cloud.notes[f"mouth_{side}_{updown}"] == "partial: forced stall"
        rays = [name for name in cloud.pieces if name.endswith(("_in", "_out"))]
        assert len(rays) == 24
        for name in rays:
            assert cloud.notes[name] == "partial: forced stall"
            assert name in cloud.depths
        assert not [note for note in cloud.notes.values() if note.startswith("unreached:")]

    @pytest.mark.parametrize("turns", [1, 4])
    def test_pooled_tracks_match_solo_runs(self, monkeypatch, turns):
        calls = {"n": 0}
        derivative = DevelopingMap.derivative

        def counted(self, w):
            calls["n"] += 1
            return derivative(self, w)

        def one_at_a_time(dev, tracks):
            return [lock_step(dev, [track])[0] for track in tracks]

        monkeypatch.setattr(DevelopingMap, "derivative", counted)
        pooled = limit_image_cloud(X0, TAU, theta_max=2 * math.pi * turns)
        pooled_calls, calls["n"] = calls["n"], 0
        monkeypatch.setattr(limitset, "lock_step", one_at_a_time)
        solo = limit_image_cloud(X0, TAU, theta_max=2 * math.pi * turns)
        assert list(pooled.pieces) == list(solo.pieces)
        for name, pts in solo.pieces.items():
            assert np.array_equal(pooled.pieces[name], pts), name
        assert list(pooled.notes.items()) == list(solo.notes.items())
        assert list(pooled.depths.items()) == list(solo.depths.items())
        assert pooled_calls <= calls["n"] / 2

    @pytest.mark.parametrize("turns", [1, 5])
    def test_quarter_arc_bridges_reach_the_ramps_seeds(self, monkeypatch, turns):
        # a bridge keeps only its end, which the Newton corrector pins to
        # tol at any step schedule: starting at a quarter of the arc seeds
        # every stop where a ramp up from 0.005 does
        def ramped(*args, **kwargs):
            return track_level_curve(*args, **{**kwargs, "first_step": 0.005})

        quarter = limit_image_cloud(X0, TAU, theta_max=2 * math.pi * turns)
        monkeypatch.setattr(limitset, "track_level_curve", ramped)
        ramp = limit_image_cloud(X0, TAU, theta_max=2 * math.pi * turns)
        assert list(quarter.pieces) == list(ramp.pieces)
        for name, pts in ramp.pieces.items():
            assert len(quarter.pieces[name]) == len(pts), name
            assert np.abs(quarter.pieces[name] - pts).max() <= 1e-9, name
        assert quarter.notes == ramp.notes
        assert quarter.depths == ramp.depths

    def test_bridge_steps_are_not_set_by_a_ramp(self, monkeypatch):
        # a ramp up from 0.005 takes 504 accepted bridge steps at the
        # default theta_max, quarter-arc starts 128
        steps = []

        def counted(*args, **kwargs):
            r = track_level_curve(*args, **kwargs)
            steps.append(len(r.s) - 1)
            return r

        monkeypatch.setattr(limitset, "track_level_curve", counted)
        limit_image_cloud(X0, TAU)
        assert len(steps) == 36
        assert sum(steps) <= 150

    def test_cloud_is_near_a_finer_tracked_one(self, monkeypatch):
        # a reference with every mouth's and ray's step cap divided by 8,
        # both resampled far finer than the default spacing: each piece
        # lies within 2.056e-3 of its reference (mouth_right_upper)
        cloud = limit_image_cloud(X0, TAU, spacing=5e-4)

        def finer(*args, **kwargs):
            return (yield from level_curve_track(*args, **{**kwargs, "max_step": kwargs["max_step"] / 8}))

        monkeypatch.setattr(limitset, "level_curve_track", finer)
        reference = limit_image_cloud(X0, TAU, spacing=5e-4)
        assert list(cloud.pieces) == list(reference.pieces)
        deviation = max(hausdorff_distance(pts, reference.pieces[name]) for name, pts in cloud.pieces.items())
        assert deviation <= 2.3e-3

    def test_each_anchor_solved_once(self, monkeypatch):
        # one real-axis anchor, solved on the right and mirrored to the
        # left, serves the mouth curves and the spiral assemblies of both
        # sides; outside the solve the cloud develops only the left anchor,
        # since the solve hands back g at the right one
        calls = {"develop_at": 0, "in_anchors": 0, "anchors": 0}
        develop_at, anchor = DevelopingMap.develop_at, limitset._axis_anchor_real

        def counted_develop_at(self, *args, **kwargs):
            calls["develop_at"] += 1
            return develop_at(self, *args, **kwargs)

        def counted_anchor(dev):
            before = calls["develop_at"]
            root = anchor(dev)
            calls["anchors"] += 1
            calls["in_anchors"] += calls["develop_at"] - before
            return root

        monkeypatch.setattr(DevelopingMap, "develop_at", counted_develop_at)
        monkeypatch.setattr(limitset, "_axis_anchor_real", counted_anchor)
        limit_image_cloud(X0, TAU, theta_max=2 * math.pi)
        assert calls["anchors"] == 1
        assert calls["develop_at"] == calls["in_anchors"] + 1
        assert calls["develop_at"] <= 20

    @pytest.mark.parametrize("turns", [2, 3])
    def test_truncation_equals_direct_cloud(self, limit_cloud, turns):
        theta = 2 * math.pi * turns
        cut = limit_cloud.truncated(theta)
        direct = limit_image_cloud(X0, TAU, theta_max=theta)
        assert sorted(cut.pieces) == sorted(direct.pieces)
        for name, pts in direct.pieces.items():
            assert np.array_equal(cut.pieces[name], pts), name
        assert cut.notes == direct.notes
        assert cut.depths == direct.depths
        assert len(cut.pieces) < len(limit_cloud.pieces)

    @pytest.mark.parametrize("turns", [4, 8])
    def test_mirror_corners_number_their_sheets_alike(self, limit_cloud, turns):
        # w -> -conj(w) carries the ul end onto ur and bl onto br; the
        # mirrored stop must carry the same name and depth
        cloud = limit_cloud if turns == 4 else limit_image_cloud(X0, TAU, theta_max=2 * math.pi * turns)
        corner = lambda name: name.split("_")[1]
        spiral = [name for name in cloud.pieces if name.startswith(("seam_", "flank_"))]
        left = [name for name in spiral if corner(name) in ("ul", "bl")]
        right = {name for name in spiral if corner(name) in ("ur", "br")}
        assert len(left) == len(right) == 2 * 2 * (1 + 2 * turns)
        for name in left:
            twin = name.replace("_ul_", "_ur_").replace("_bl_", "_br_")
            assert twin in right, name
            pts, image = cloud.pieces[twin], -np.conj(cloud.pieces[name])
            assert len(pts) == len(image), name
            assert np.abs(pts - image).max() <= 1e-9, name
            assert cloud.depths[twin] == cloud.depths[name], name

    def test_flank_sheets_match_the_spiral_charts(self, limit_cloud):
        # a flank's depth, moved just inside its edge of sheet n's rectangle
        # window, is classified as that sheet by the embedding's charts
        flanks = [name for name in limit_cloud.pieces if name.startswith("flank_")]
        assert len(flanks) == 4 * 2 * 4 * 2
        for name in flanks:
            _, corner, stop, _ = name.split("_")
            n, edge = int(stop[1:-1]), stop[-1]
            seam, orient = SPIRAL_SEAM[corner]
            depth = limit_cloud.depths[name] + (1e-6 if edge == "a" else -1e-6)
            assert _window(corner, seam + orient * depth) == ("rect", n), name

    def test_deeper_truncation_only_adds_near_singularities(self, limit_cloud):
        wider = limit_image_cloud(X0, TAU, theta_max=10 * math.pi)
        base = limit_cloud.points
        pts = wider.points
        pa = np.column_stack([base.real, base.imag])
        pb = np.column_stack([pts.real, pts.imag])

        # the shallow configuration is a subset of the deeper one
        assert cKDTree(pb).query(pa)[0].max() < 1e-6
        assert len(pts) > len(base)
        # whatever is new lives at the accumulation scale of the cut
        dist_new = cKDTree(pa).query(pb)[0]
        fresh = pts[dist_new > 1e-6]
        away = np.minimum(np.abs(fresh - X0), np.abs(fresh + X0))
        assert len(fresh) > 0
        assert away.max() < 0.05


class TestLimitParameters:
    def test_developed_edge_sits_at_unit_height(self, sweep):
        # the identified edge pair lies at height 1 in the rectangle chart;
        # integrating 1 - g' down the imaginary axis from the anchoring at
        # infinity must therefore give the developed height of the edge
        est = extract_limit(sweep)
        drop = quad(
            lambda s: 1.0 - math.exp(-2 * est.tau * est.x0 / (s * s + est.x0 * est.x0)),
            0.0,
            np.inf,
        )[0]
        assert drop == pytest.approx(1.0, abs=2e-3)


class TestConvergenceReport:
    def test_baseline_row(self, sweep):
        rep = convergence_report([1.0], sweep, extract_limit(sweep))
        assert rep["k_values"] == [1.0]
        row = rep["rows"][0]
        assert row["K"] == 1.0
        assert row["hausdorff"] == pytest.approx(D_SQUARE_TO_LIMIT, rel=1e-3)
        assert row["boundary_points"] > 1500
        # the baseline sits far above the acceptance bar by construction
        assert rep["final_distance"] > checks.HAUSDORFF_ACCEPT

    def test_two_decades_decrease(self, sweep):
        rep = convergence_report([100.0, 1000.0], sweep, extract_limit(sweep))
        d = [row["hausdorff"] for row in rep["rows"]]
        assert d[0] == pytest.approx(D_AT_1E2, rel=2e-2)
        assert d[1] == pytest.approx(D_AT_1E3, rel=2e-2)
        # decreasing, resolved by the cutoff, and only the bar unmet
        problems, detail = checks.hausdorff_convergence(rep)
        assert problems == [f"final distance {d[1]:.4f} above {checks.HAUSDORFF_ACCEPT}"]
        assert detail["strictly_decreasing"]

    def test_density_doubling_stable(self, sweep):
        by_k = {r.K: r for r in sweep}
        est = extract_limit(sweep)
        dev = DevelopingMap.from_aspect(100.0, by_k[100.0].prevertex)
        vals = []
        for spacing in (0.004, 0.002):
            lim = limit_image_cloud(est.x0, est.tau, spacing=spacing)
            fin = rectangle_image_boundary(dev, spacing=spacing)
            vals.append(hausdorff_distance(fin.points, lim.points))
        assert abs(vals[1] - vals[0]) < 0.1 * vals[0]
