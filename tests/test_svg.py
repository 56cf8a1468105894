"""Shape of the figure documents."""

import re

import numpy as np
import pytest

from affsurf.svg import PALETTE, PlaneCurve, figure


def square():
    pts = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    return PlaneCurve("boundary", pts, PALETTE[0])


def diagonal():
    return PlaneCurve("diag", np.array([0j, 1 + 1j]), PALETTE[1])


class TestFigure:
    def test_one_path_per_curve(self):
        doc = figure([square(), diagonal()])
        assert doc.count("<path") == 2

    def test_declares_svg_11(self):
        doc = figure([square()])
        assert 'version="1.1"' in doc
        assert 'xmlns="http://www.w3.org/2000/svg"' in doc

    def test_viewbox_covers_data(self):
        doc = figure([square()])
        box = re.search(r'viewBox="([^"]+)"', doc)
        x0, y0, w, h = (float(v) for v in box.group(1).split())
        # drawn y-range [-1, 1] maps to [-1, 1] after the flip
        assert x0 <= -1.0 and y0 <= -1.0
        assert x0 + w >= 1.0 and y0 + h >= 1.0

    def test_path_data_keeps_plane_coordinates(self):
        # the vertical flip lives in one transform, not in the numbers
        doc = figure([diagonal()])
        assert 'd="M 0 0 L 1 1"' in doc
        assert 'transform="scale(1,-1)"' in doc

    def test_markers_become_circles(self):
        doc = figure([square()], [PlaneCurve("pins", np.array([0.5 + 0.5j, -0.5j]), "#000000")])
        assert doc.count("<circle") == 2
        assert 'cx="0.5" cy="0.5"' in doc

    def test_deterministic(self):
        a = figure([square(), diagonal()])
        b = figure([square(), diagonal()])
        assert a == b

    def test_duplicate_names_disambiguated(self):
        doc = figure([diagonal(), diagonal()])
        assert 'id="diag"' in doc
        assert 'id="diag-2"' in doc

    def test_aspect_ratio_preserved(self):
        # a wide data range must produce a wide image
        wide = PlaneCurve("w", np.array([0j, 10 + 1j]), PALETTE[0])
        doc = figure([wide])
        width = float(re.search(r'width="([^"]+)"', doc).group(1))
        height = float(re.search(r'height="([^"]+)"', doc).group(1))
        assert width / height > 3.0

    def test_rejects_single_point_curve(self):
        with pytest.raises(ValueError):
            figure([PlaneCurve("p", np.array([1j]), PALETTE[0])])

    def test_rejects_nothing_to_draw(self):
        with pytest.raises(ValueError):
            figure([])
