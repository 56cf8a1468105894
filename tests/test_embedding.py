"""Leaf-space charts: evaluation, inversion, and the measurements of criterion 08."""

import cmath
import math

import numpy as np
import pytest

from affsurf import checks
from affsurf.checks import SEPARATION_SCENARIOS, TRANSITION_PAIRS
from affsurf.embedding import (
    VirtualPointRep,
    disk_image,
    edge_strip_chart,
    embed_eval,
    embed_invert,
    half_strip_chart,
    outer_chart,
    spiral_ball_chart,
    transition,
)
from affsurf.surface import ChartId, SurfacePoint


class TestChartConstruction:
    def test_strip_side_validated(self):
        with pytest.raises(ValueError):
            half_strip_chart("top")

    def test_spiral_radius_validated(self):
        with pytest.raises(ValueError):
            spiral_ball_chart("ul", 1j * math.pi / 2, 1.5)

    def test_spiral_corner_validated(self):
        with pytest.raises(ValueError):
            spiral_ball_chart("xy", 1j, 0.1)

    def test_base_beyond_cover_rejected(self):
        # ul keeps angles above -pi/2 only
        with pytest.raises(ValueError):
            spiral_ball_chart("ul", -0.6j * math.pi, 0.1)

    def test_sheet_recorded(self):
        c = spiral_ball_chart("ul", 1j * 7 * math.pi / 4, 0.45)
        assert c.sheet == ("rect", 1)
        c = spiral_ball_chart("ur", 1j * (math.pi - 0.3), 0.3)
        assert c.sheet == ("outer", 0)

    def test_virtual_point_validated(self):
        with pytest.raises(ValueError):
            VirtualPointRep(0.5 + 0.5j, outer_chart())


class TestEmbedEval:
    def test_outer_constant_across_leaves(self):
        ch = outer_chart()
        for t in (0.0, 0.2, 1.0):
            p = embed_eval(ch, t, 5 + 5j)
            assert p.chart is ChartId.OUTER
            assert p.coord == 5 + 5j

    def test_outer_rejects_square(self):
        with pytest.raises(ValueError):
            embed_eval(outer_chart(), 0.5, 0.5 + 0.5j)

    def test_edge_strip_zones(self):
        ch = edge_strip_chart()
        assert embed_eval(ch, 0.5, 0.3 + 2j) == SurfacePoint(ChartId.OUTER, 0.3 + 2j)
        assert embed_eval(ch, 0.5, 0.5j) == SurfacePoint(ChartId.RECT, 0j)
        assert embed_eval(ch, 0.5, -2j).coord == -3j
        # identity member: no rectangle offset anywhere
        assert embed_eval(ch, 1.0, -2j).coord == -2j

    def test_edge_strip_limit_leaf(self):
        ch = edge_strip_chart()
        assert embed_eval(ch, 0.0, 0.2 + 1.5j).coord == 0.2 + 1.5j
        p = embed_eval(ch, 0.0, 0.2 + 0.5j)
        assert p.chart is ChartId.OUTER
        assert p.coord == 0.2 - 1.5j

    def test_half_strip_outer_zone_constant(self):
        ch = half_strip_chart("left")
        for t in (0.0, 0.5, 1.0):
            assert embed_eval(ch, t, -0.5 + 0.3j).coord == -1.5 + 0.3j

    def test_half_strip_zones_at_finite_aspect(self):
        ch = half_strip_chart("left")
        assert embed_eval(ch, 0.5, 1.0 + 0j) == SurfacePoint(ChartId.RECT, -0.5 + 0j)
        p = embed_eval(ch, 0.5, 1 + 2j)
        assert p.chart is ChartId.OUTER
        assert p.coord == (-1 + 1j) + (1 + 1j) / 2

    def test_half_strip_limit_leaf(self):
        ch = half_strip_chart("left")
        assert embed_eval(ch, 0.0, 1 + 0j) == SurfacePoint(ChartId.STRIP_LEFT, 1 + 0j)
        p = embed_eval(ch, 0.0, 1 + 2j)
        assert p.chart is ChartId.SPIRAL_UL
        assert p.coord == pytest.approx(cmath.log(1 + 1j))
        p = embed_eval(ch, 0.0, 1 - 2j)
        assert p.chart is ChartId.SPIRAL_BL
        assert p.coord == pytest.approx(cmath.log(1 - 1j))

    def test_right_strip_mirrors_left(self):
        ch = half_strip_chart("right")
        assert embed_eval(ch, 0.5, -1 + 0j) == SurfacePoint(ChartId.RECT, 0.5 + 0j)
        assert embed_eval(ch, 0.25, 0.5 + 0.2j).coord == 1.5 + 0.2j
        p = embed_eval(ch, 0.0, -1 + 2j)
        assert p.chart is ChartId.SPIRAL_UR
        lam = p.coord
        assert cmath.exp(lam) == pytest.approx(-1 + 1j)
        assert 0.5 * math.pi < lam.imag < math.pi

    def test_spiral_outer_sheet_example(self):
        ch = spiral_ball_chart("ul", 1j * math.pi / 2, 0.5)
        p = embed_eval(ch, 0.25, 1j)
        assert p.chart is ChartId.OUTER
        assert p.coord == pytest.approx((-1 + 1j) + 0.25j)
        lim = embed_eval(ch, 0.0, 1j)
        assert lim.chart is ChartId.SPIRAL_UL
        assert lim.coord == pytest.approx(1j * math.pi / 2)

    def test_spiral_rect_sheet(self):
        base = 1j * 7 * math.pi / 4
        ch = spiral_ball_chart("ul", base, 0.45)
        w = cmath.exp(base)
        p = embed_eval(ch, 0.5, w)
        assert p.chart is ChartId.RECT
        assert p.coord == pytest.approx((-1 + 0.5j) + w / 4)

    def test_spiral_rect_window_bound(self):
        # sheet 1 needs |z| < 2K; build a base far enough out to violate it
        base = math.log(3.0) + 1j * 7 * math.pi / 4
        ch = spiral_ball_chart("ul", base, 0.5)
        with pytest.raises(ValueError):
            embed_eval(ch, 0.8, cmath.exp(base))

    def test_spiral_collar_maps_to_strip(self):
        # the ball dips below the seam; those points belong to the strip
        ch = spiral_ball_chart("ul", 0.1j, 0.6)
        z = cmath.exp(-0.2j)
        p = embed_eval(ch, 0.5, z)
        assert p.chart is ChartId.RECT
        assert p.coord == pytest.approx((-1 + 0.5j) + z / 2)
        lim = embed_eval(ch, 0.0, z)
        assert lim.chart is ChartId.STRIP_LEFT
        assert lim.coord == pytest.approx(z + 1j)

    def test_deep_sheets_shrink_geometrically(self):
        zs = []
        for n in (1, 2):
            base = 1j * (7 * math.pi / 4 + 2 * math.pi * (n - 1))
            ch = spiral_ball_chart("ul", base, 0.4)
            zs.append(embed_eval(ch, 0.1, cmath.exp(base)).coord)
        c = -1 + 0.1j
        assert abs(zs[0] - c) == pytest.approx(1e-2, rel=1e-12)
        assert abs(zs[1] - c) == pytest.approx(1e-3, rel=1e-12)


class TestInversion:
    CASES = [
        (outer_chart(), [2 + 2j, -3 + 0.5j, 1.2j * 2]),
        (edge_strip_chart(), [0.3 + 2j, 0.1 + 0.8j, -0.4 - 3j]),
        (half_strip_chart("left"), [-0.5 + 0.2j, 1.5 + 0.1j, 0.7 + 1.4j, 2 - 1.8j]),
        (half_strip_chart("right"), [0.5 + 0.2j, -1.5 - 0.1j, -0.7 + 1.4j]),
        (spiral_ball_chart("ul", 1j * math.pi / 2, 0.5), [1j, 0.9j + 0.2, 1.2j]),
        (spiral_ball_chart("ul", 1j * 7 * math.pi / 4, 0.45),
         [cmath.exp(1j * 7 * math.pi / 4), cmath.exp(1j * 7.2 * math.pi / 4)]),
        (spiral_ball_chart("br", 1j * (-math.pi + 0.4), 0.3),
         [cmath.exp(1j * (-math.pi + 0.4))]),
    ]

    @pytest.mark.parametrize("t", [0.0, 0.5, 0.125])
    def test_round_trip(self, t):
        for chart, pts in self.CASES:
            for z in pts:
                if not chart.contains(t, z):
                    continue
                back = embed_invert(chart, t, embed_eval(chart, t, z))
                assert back is not None
                assert back == pytest.approx(z, abs=1e-12)

    def test_foreign_points_rejected(self):
        p = SurfacePoint(ChartId.RECT, 0.1j)
        assert embed_invert(outer_chart(), 0.5, p) is None
        q = SurfacePoint(ChartId.OUTER, 5 + 5j)
        assert embed_invert(edge_strip_chart(), 0.5, q) is None
        assert embed_invert(half_strip_chart("left"), 0.0, q) is None
        # points whose solved coordinate lies in another region
        in_rect = SurfacePoint(ChartId.RECT, 0.5 + 0.9j)
        assert embed_invert(edge_strip_chart(), 0.5, in_rect) is None
        on_edge = SurfacePoint(ChartId.OUTER, -0.5 + 1j)
        assert embed_invert(half_strip_chart("left"), 0.5, on_edge) is None


def _judge(entry):
    """Criterion 08 on a one-entry table: its problems and the entry's detail."""
    problems, detail = checks.chart_transitions((entry,))
    return problems, detail[entry[0]]


class TestTransitions:
    def test_outer_vs_half_strip_constant(self):
        problems, rep = _judge(TRANSITION_PAIRS[0])
        assert problems == []
        assert rep["verdict"] == "pass"
        # a zero rate bound means every sup on the grid is zero
        assert rep["rate_bound"] == 0.0

    def test_edge_strip_vs_outer_upper_identity(self):
        problems, rep = _judge(TRANSITION_PAIRS[1])
        assert problems == []
        assert rep["verdict"] == "pass"
        assert rep["rate_bound"] == rep["final_sup"] == 0.0

    def test_edge_strip_vs_outer_lower_rate(self):
        # below the rectangle the change is z - 2i + 2it: sup is exactly 2t
        problems, rep = _judge(TRANSITION_PAIRS[2])
        assert problems == []
        assert rep["verdict"] == "pass"
        assert rep["final_sup"] == pytest.approx(2 * checks._T_GRID[-1], rel=1e-12)
        assert rep["rate_bound"] == pytest.approx(2.0, rel=1e-12)
        _, cha, chb, compact, _ = TRANSITION_PAIRS[2]
        for t in checks._T_GRID:
            gaps = [transition(cha, chb, t, z) - transition(cha, chb, 0.0, z) for z in compact]
            sup = max(abs(g) for g in gaps)
            assert sup == pytest.approx(2 * t, rel=1e-12)

    def test_half_strip_vs_spiral_flap(self):
        problems, rep = _judge(TRANSITION_PAIRS[3])
        assert problems == []
        assert rep["verdict"] == "pass"
        # every sample lies in the overlap on every leaf, within 1e-13 of its limit
        _, cha, ball, compact, _ = TRANSITION_PAIRS[3]
        for z in compact:
            limit = transition(cha, ball, 0.0, z)
            assert limit is not None
            for t in checks._T_GRID:
                assert abs(transition(cha, ball, t, z) - limit) < 1e-13

    def test_no_overlap_reported_empty(self):
        # the two half strips only meet through the rectangle, which
        # escapes every window at the limit (test_checks holds a ball case)
        problems, rep = _judge(
            ("left-vs-right", half_strip_chart("left"), half_strip_chart("right"),
             (1 + 0.5j, 3 - 0.2j), 1e-9)
        )
        assert problems == ["left-vs-right: charts do not overlap on the samples"]
        assert rep["verdict"] == "empty"

    def test_fixed_leaf_changes_are_affine(self):
        # compose eval and invert by hand on one leaf and fit a + b z
        t = 0.25
        cha, chb = half_strip_chart("left"), edge_strip_chart()
        zs = [0.5 + 0.4j, 1.2 - 0.3j, 2.0 + 0.1j]
        ws = [embed_invert(chb, t, embed_eval(cha, t, z)) for z in zs]
        assert all(w is not None for w in ws)
        assert ws == [transition(cha, chb, t, z) for z in zs]
        b = (ws[1] - ws[0]) / (zs[1] - zs[0])
        a = ws[0] - b * zs[0]
        assert a + b * zs[2] == pytest.approx(ws[2], abs=1e-12)


class TestSeparation:
    K_LIST = (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)
    STRIP = SEPARATION_SCENARIOS[0][1]

    @pytest.fixture
    def k_list(self, monkeypatch):
        # the aspects include the near-square members, where disks still meet
        monkeypatch.setattr(checks, "SEPARATION_ASPECTS", self.K_LIST)

    def test_strip_vs_first_sheet(self, k_list):
        name, strip, sheet, rx, ry = SEPARATION_SCENARIOS[0]
        problems, detail = checks.separation_scenarios((SEPARATION_SCENARIOS[0],))
        assert detail[name] == {
            "1": "overlapping", "2": "disjoint", "5": "disjoint",
            "10": "disjoint", "100": "disjoint", "1000": "disjoint",
        }
        assert problems == [f"{name}: [(1.0, 'overlapping')]"]
        # radii scale one aspect power apart
        assert disk_image(strip.chart, 10.0, strip.a, rx)[2] == pytest.approx(0.04)
        assert disk_image(sheet.chart, 10.0, sheet.a, ry)[2] == pytest.approx(0.004)

    def test_equal_projection_sheets(self, k_list):
        name = SEPARATION_SCENARIOS[2][0]
        problems, detail = checks.separation_scenarios((SEPARATION_SCENARIOS[2],))
        assert detail[name]["2"] == "overlapping"
        for K in ("5", "10", "100", "1000"):
            assert detail[name][K] == "disjoint"
        assert problems == [f"{name}: [(1.0, 'overlapping'), (2.0, 'overlapping')]"]

    def test_identical_points_rejected(self):
        twin = VirtualPointRep(1.0 + 0j, half_strip_chart("left"))
        with pytest.raises(ValueError):
            checks.separation_scenarios((("twins", self.STRIP, twin, 0.1, 0.1),))

    def test_straddling_disk_rejected(self):
        x = VirtualPointRep(1.2 + 1.2j, outer_chart())
        with pytest.raises(ValueError):
            disk_image(x.chart, 10.0, x.a, 0.5)
        with pytest.raises(ValueError):
            checks.separation_scenarios((("straddling", x, self.STRIP, 0.5, 0.1),))

    @pytest.mark.parametrize("K", [10.0, 100.0, 1000.0])
    def test_disk_centres_are_evaluations(self, K):
        # each disk image is centred at the chart's value at its base point
        for _, x, y, rx, ry in SEPARATION_SCENARIOS:
            for v, r in ((x, rx), (y, ry)):
                p = embed_eval(v.chart, 1.0 / K, v.a)
                assert disk_image(v.chart, K, v.a, r)[:2] == (p.chart, p.coord)

    def test_different_charts_disjoint(self):
        # an outer point far from the square vs a strip point landing in
        # the rectangle: separate charts, both disks strictly inside
        name, x, y, rx, ry = SEPARATION_SCENARIOS[1]
        assert disk_image(x.chart, 10.0, x.a, rx)[0] is not disk_image(y.chart, 10.0, y.a, ry)[0]
        problems, detail = checks.separation_scenarios((SEPARATION_SCENARIOS[1],))
        assert problems == []
        assert set(detail[name].values()) == {"disjoint"}


class TestInjectivity:
    def test_half_strip_leaf_injective(self):
        ch = half_strip_chart("left")
        t = 0.5
        zs = [
            complex(x, y)
            for x in np.linspace(-1.5, 3.5, 11)
            for y in np.linspace(-1.8, 1.8, 9)
            if ch.contains(t, complex(x, y))
        ]
        images = [embed_eval(ch, t, z) for z in zs]
        seen = {(p.chart, round(p.coord.real, 9), round(p.coord.imag, 9)) for p in images}
        assert len(seen) == len(zs)

    def test_spiral_leaf_injective(self):
        ch = spiral_ball_chart("ul", 1j * math.pi / 2, 0.5)
        t = 0.25
        zs = [
            1j + complex(x, y)
            for x in np.linspace(-0.3, 0.3, 7)
            for y in np.linspace(-0.3, 0.3, 7)
            if ch.contains(t, 1j + complex(x, y))
        ]
        images = [embed_eval(ch, t, z) for z in zs]
        seen = {(p.chart, round(p.coord.real, 12), round(p.coord.imag, 12)) for p in images}
        assert len(seen) == len(zs)
