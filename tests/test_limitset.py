"""Boundary clouds, limit configuration, and Hausdorff comparisons."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from affsurf.develop import DevelopingMap
from affsurf.limitset import (
    HAUSDORFF_ACCEPT,
    convergence_report,
    hausdorff_distance,
    limit_image_cloud,
    rectangle_image_boundary,
    resample_curve,
)
from affsurf.solver import continuation_sweep, extract_limit
from affsurf.tracking import track_level_curve

Z1_K2 = 1.248075111571 + 0.767644410562j
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
        with pytest.raises(ValueError):
            hausdorff_distance(np.array([], dtype=complex), np.array([0j]))


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
            r = track_level_curve(*args, **kwargs)
            return dataclasses.replace(r, status="stalled", reason="forced stall")

        monkeypatch.setattr("affsurf.limitset.track_level_curve", stalled)
        cloud = rectangle_image_boundary(DevelopingMap.from_aspect(2.0, Z1_K2))
        halves = [name for name in cloud.pieces if name != "prevertices"]
        assert len(halves) == 8
        for name in halves:
            assert cloud.notes[name] == "partial: forced stall"


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
        def stalled(*args, **kwargs):
            r = track_level_curve(*args, **kwargs)
            return dataclasses.replace(r, status="stalled", reason="forced stall")

        monkeypatch.setattr("affsurf.limitset.track_level_curve", stalled)
        cloud = limit_image_cloud(X0, TAU, theta_max=2 * math.pi)
        for side in ("right", "left"):
            for updown in ("upper", "lower"):
                assert cloud.notes[f"mouth_{side}_{updown}"] == "partial: forced stall"

    def test_deeper_truncation_only_adds_near_singularities(self, limit_cloud):
        wider = limit_image_cloud(X0, TAU, theta_max=10 * math.pi)
        base = limit_cloud.points
        pts = wider.points
        pa = np.column_stack([base.real, base.imag])
        pb = np.column_stack([pts.real, pts.imag])
        from scipy.spatial import cKDTree

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
        rep = convergence_report([1.0], solutions=sweep)
        assert rep["k_values"] == [1.0]
        row = rep["rows"][0]
        assert row["K"] == 1.0
        assert row["hausdorff"] == pytest.approx(D_SQUARE_TO_LIMIT, rel=1e-3)
        assert row["boundary_points"] > 1500
        # the baseline sits far above the acceptance bar by construction
        assert rep["final_distance"] > HAUSDORFF_ACCEPT
        assert rep["verdict"] == "fail"

    def test_loose_threshold_passes(self, sweep):
        rep = convergence_report([1.0], solutions=sweep, threshold=2.0)
        assert rep["verdict"] == "pass"

    def test_two_decades_decrease(self, sweep):
        rep = convergence_report([100.0, 1000.0], solutions=sweep)
        d = [row["hausdorff"] for row in rep["rows"]]
        assert d[0] == pytest.approx(D_AT_1E2, rel=2e-2)
        assert d[1] == pytest.approx(D_AT_1E3, rel=2e-2)
        assert rep["strictly_decreasing"]
        sens = rep["truncation"]["sensitivity"]
        assert sens < 0.2 * rep["final_distance"]

    def test_verdict_consistent_with_fields(self, sweep):
        rep = convergence_report([100.0], solutions=sweep)
        final = rep["final_distance"]
        sens = rep["truncation"]["sensitivity"]
        if sens > 0.2 * final:
            expect = "inconclusive"
        elif rep["strictly_decreasing"] and final < rep["threshold"]:
            expect = "pass"
        else:
            expect = "fail"
        assert rep["verdict"] == expect

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
