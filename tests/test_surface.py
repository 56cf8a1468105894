import cmath
import math

import pytest

from affsurf.embedding import (
    edge_strip_chart,
    embed_eval,
    embed_invert,
    half_strip_chart,
    spiral_ball_chart,
)
from affsurf.surface import (
    CORNER_COORD,
    ChartId,
    SurfacePoint,
    corner_holonomy,
    gluing_map,
    hole_monodromy,
)

INF = math.inf


class TestGluing:
    def test_k2_edge_maps(self):
        z = 0.3 + 0.1j
        assert gluing_map(2.0, "top")(z) == pytest.approx(z + 0.5j)
        assert gluing_map(2.0, "bottom")(z) == pytest.approx(z - 0.5j)
        assert gluing_map(2.0, "left")(z) == pytest.approx(2 * z + 1)
        assert gluing_map(2.0, "right")(z) == pytest.approx(2 * z - 1)

    def test_corners_match(self):
        # each gluing maps rectangle corners to the matching square corners
        for K in (1.0, 2.0, 7.5):
            for side, names in [
                ("top", ("ul", "ur")),
                ("bottom", ("bl", "br")),
                ("left", ("ul", "bl")),
                ("right", ("ur", "br")),
            ]:
                g = gluing_map(K, side)
                for name in names:
                    sq = CORNER_COORD[name]
                    rect_corner = complex(sq.real, sq.imag / K)
                    assert g(rect_corner) == pytest.approx(sq, abs=1e-14)

    def test_identity_at_k1(self):
        for side in ("top", "bottom", "left", "right"):
            assert gluing_map(1.0, side).is_identity(tol=0)

    def test_inverse_direction(self):
        g = gluing_map(3.0, "right")
        h = g.inverse()
        assert h(g(0.2 - 0.1j)) == pytest.approx(0.2 - 0.1j)

    def test_no_rectangle_at_limit(self):
        with pytest.raises(ValueError):
            gluing_map(INF, "top")


class TestTransport:
    # Coordinate changes across glued edges. Outer <-> rectangle is the
    # gluing similitude; at K = inf the strip mouths and the strip-to-spiral
    # seams are the embedding charts' limit leaf (t = 0).

    def test_outer_to_rect_left_edge(self):
        g = gluing_map(2.0, "left").inverse()
        assert g(-1 + 0.5j) == pytest.approx(-1 + 0.25j)

    def test_round_trip_all_edges(self):
        K = 3.0
        for side, coord in (
            ("top", 0.4 + 1j),
            ("bottom", 0.4 - 1j),
            ("left", -1 + 0.6j),
            ("right", 1 - 0.3j),
        ):
            q = gluing_map(K, side).inverse()(coord)
            assert abs(q.real) <= 1.0 + 1e-9 and abs(q.imag) <= 1.0 / K + 1e-9
            back = gluing_map(K, side)(q)
            assert back == pytest.approx(coord)

    def test_limit_strip_mouth(self):
        left = half_strip_chart("left")
        a = embed_invert(left, 0.0, SurfacePoint(ChartId.OUTER, -1 + 0.5j))
        assert a == pytest.approx(0.5j)
        inside = embed_eval(left, 0.0, 0.1 + 0.5j)
        assert inside.chart is ChartId.STRIP_LEFT
        assert inside.coord == pytest.approx(0.1 + 0.5j)
        q = embed_eval(half_strip_chart("right"), 0.0, -0.7j)
        assert q.chart is ChartId.OUTER
        assert q.coord == pytest.approx(1 - 0.7j)

    def test_limit_strip_to_spiral(self):
        chart = spiral_ball_chart("ul", complex(math.log(3)), 1.0)
        p = embed_eval(chart, 0.0, 3 + 0j)
        assert p.chart is ChartId.STRIP_LEFT
        assert p.coord == pytest.approx(3 + 1j)
        z = embed_invert(chart, 0.0, SurfacePoint(ChartId.STRIP_LEFT, 3 + 1j))
        assert cmath.log(z) == pytest.approx(math.log(3))

    def test_bottom_right_seam_sign(self):
        # the seam of the bottom-right spiral is the -pi lift of the cut
        chart = spiral_ball_chart("br", complex(math.log(2), -math.pi), 1.0)
        past = embed_eval(chart, 0.0, 2 * cmath.exp(1j * (0.1 - math.pi)))
        assert past.chart is ChartId.SPIRAL_BR
        assert past.coord == pytest.approx(math.log(2) - 1j * (math.pi - 0.1))
        z = embed_invert(chart, 0.0, SurfacePoint(ChartId.STRIP_RIGHT, -2 - 1j))
        assert z == pytest.approx(-2)
        back = embed_eval(chart, 0.0, z)
        assert back.chart is ChartId.STRIP_RIGHT
        assert back.coord == pytest.approx(-2 - 1j)

    def test_unrelated_charts_rejected(self):
        chart = spiral_ball_chart("ur", complex(math.log(3), math.pi), 1.0)
        assert embed_invert(chart, 0.0, SurfacePoint(ChartId.STRIP_LEFT, 3 + 1j)) is None
        own = embed_invert(chart, 0.0, SurfacePoint(ChartId.STRIP_RIGHT, -3 + 1j))
        assert own == pytest.approx(-3)


class TestCornerHolonomy:
    def test_spec_example_upper_left(self):
        h = corner_holonomy(2.0, "ul")
        z = 0.7 - 1.3j
        assert h(z) == pytest.approx((-1 + 1j) + 2 * (z - (-1 + 1j)))

    @pytest.mark.parametrize("K", [2.0, 5.0, 1000.0])
    def test_fixed_points_and_ratios(self, K):
        expect_ratio = {"ul": K, "ur": 1 / K, "bl": 1 / K, "br": K}
        for corner, coord in CORNER_COORD.items():
            h = corner_holonomy(K, corner)
            assert h.fixed_point() == pytest.approx(coord, abs=1e-12)
            assert h.a == pytest.approx(expect_ratio[corner], rel=1e-14)
            assert h.inverse().compose(h).is_identity(tol=1e-12)

    def test_degenerate_at_k1(self):
        for corner in CORNER_COORD:
            assert corner_holonomy(1.0, corner).is_identity(tol=0)

    def test_limit_rejected(self):
        with pytest.raises(ValueError):
            corner_holonomy(INF, "ul")


class TestHoleMonodromy:
    def test_translation_values(self):
        assert hole_monodromy(2.0, "right").b == pytest.approx(1j)
        assert hole_monodromy(2.0, "left").b == pytest.approx(-1j)
        assert hole_monodromy(INF, "right").b == pytest.approx(2j)
        assert hole_monodromy(1.0, "right").is_identity(tol=0)

    def test_left_right_inverse(self):
        for K in (1.5, 4.0, INF):
            r = hole_monodromy(K, "right")
            l = hole_monodromy(K, "left")
            assert l.compose(r).is_identity(tol=1e-15)

    def test_orientation_flip(self):
        assert hole_monodromy(3.0, "right").inverse().b == pytest.approx(
            -hole_monodromy(3.0, "right").b
        )

    def test_magnitude_monotone(self):
        mags = [abs(hole_monodromy(K, "right").b) for K in (1, 2, 5, 100, INF)]
        assert mags == sorted(mags)
        assert mags[-1] == pytest.approx(2.0)


class TestGeodesics:
    # A straight segment inside one embedding chart is a geodesic of the
    # member at that leaf, so its end point is read off with embed_eval.

    def test_vertical_through_square_k1(self):
        p = embed_eval(edge_strip_chart(), 1.0, 1.5j - 3j)
        assert p.chart is ChartId.OUTER
        assert p.coord == pytest.approx(-1.5j)

    def test_vertical_through_rect_k2(self):
        # crossing top then bottom shifts the straight-line endpoint by the
        # hole translation: -1.5j becomes -2.5j at K=2
        p = embed_eval(edge_strip_chart(), 0.5, 1.5j - 3j)
        assert p.chart is ChartId.OUTER
        assert p.coord == pytest.approx(-2.5j)
        shift = p.coord - (-1.5j)
        assert shift == pytest.approx(hole_monodromy(2.0, "right").inverse().b)

    def test_limit_glued_edge(self):
        # the zero-height hole is crossed instantly, full deck shift -2i
        p = embed_eval(edge_strip_chart(), 0.0, 1.5j - 3j)
        assert p.chart is ChartId.OUTER
        assert p.coord == pytest.approx(-3.5j)

    def test_limit_into_strip(self):
        chart = half_strip_chart("left")
        a = embed_invert(chart, 0.0, SurfacePoint(ChartId.OUTER, -3 + 0.5j))
        p = embed_eval(chart, 0.0, a + 4.0)
        assert p.chart is ChartId.STRIP_LEFT
        assert p.coord == pytest.approx(2 + 0.5j)

    def test_limit_strip_to_spiral(self):
        chart = half_strip_chart("left")
        a = embed_invert(chart, 0.0, SurfacePoint(ChartId.STRIP_LEFT, 2 + 0.5j))
        p = embed_eval(chart, 0.0, a + 1.5j)
        assert p.chart is ChartId.SPIRAL_UL
        assert p.coord == pytest.approx(cmath.log(2 + 1j))
