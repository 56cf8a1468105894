"""Point cloud invariants and the text interchange format."""

import math
import re

import numpy as np
import pytest

from affsurf.pointcloud import PointCloud, read_points, write_points


class TestConstruction:
    def test_flattens_input(self):
        c = PointCloud(np.array([[1 + 2j, 3 - 1j]]), "demo", 10.0)
        assert c.points.shape == (2,)
        assert len(c) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([], dtype=complex), "demo", 10.0)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([1j]), "demo", 0.0)
        with pytest.raises(ValueError):
            PointCloud(np.array([1j]), "demo", math.inf)

    def test_rejects_nonfinite_points(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([1j, complex(math.nan, 0.0)]), "demo", 1.0)

    def test_rejects_unprintable_source(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([1j]), "two\nlines", 1.0)
        with pytest.raises(ValueError):
            PointCloud(np.array([1j]), "   ", 1.0)


class TestRoundTrip:
    def test_coordinates_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal(40) * math.pi + 1j * rng.standard_normal(40) / 7
        cloud = PointCloud(
            pts, "rectangle-boundary", 250.0, k=2.0, truncation={"theta_max": 8 * math.pi}
        )
        path = tmp_path / "c.txt"
        write_points(path, cloud)
        back = read_points(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.source == cloud.source
        assert back.k == 2.0
        assert back.density == 250.0
        assert back.truncation == dict(cloud.truncation)

    def test_limit_aspect_survives(self, tmp_path):
        cloud = PointCloud(np.array([1j, 2j]), "limit-boundary", 100.0, k=math.inf)
        write_points(tmp_path / "l.txt", cloud)
        assert math.isinf(read_points(tmp_path / "l.txt").k)

    def test_absent_aspect_reads_back_as_none(self, tmp_path):
        write_points(tmp_path / "n.txt", PointCloud(np.array([0j]), "track", 5.0))
        assert read_points(tmp_path / "n.txt").k is None

    def test_layout(self, tmp_path):
        write_points(
            tmp_path / "h.txt",
            PointCloud(np.array([1 + 1j, -1 - 1j]), "demo", 2.0, truncation={"depth": 3.0}),
        )
        lines = (tmp_path / "h.txt").read_text().splitlines()
        assert lines[0] == "# affsurf points 1"
        header = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert any(ln.startswith("# count: 2") for ln in header)
        assert any(ln.startswith("# truncation.depth:") for ln in header)
        assert len(body) == 2
        assert all(len(ln.split()) == 2 for ln in body)

    def test_rejects_foreign_file(self, tmp_path):
        (tmp_path / "x.txt").write_text("1.0 2.0\n")
        with pytest.raises(ValueError):
            read_points(tmp_path / "x.txt")

    def test_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "t.txt"
        write_points(path, PointCloud(np.array([0j, 1j]), "demo", 1.0))
        tampered = path.read_text().replace("# count: 2", "# count: 5")
        path.write_text(tampered)
        with pytest.raises(ValueError):
            read_points(path)

    @pytest.mark.parametrize("line", ["1.0 2.0 3.0", "1.0", "1.0 x"])
    def test_bad_body_line_names_its_place(self, tmp_path, line):
        # three fields, one field and a non-number each name the file
        # and the 1-based line number
        path = tmp_path / "b.txt"
        write_points(path, PointCloud(np.array([0j, 1j]), "demo", 1.0))
        lines = path.read_text().splitlines()
        lines[-1] = line
        path.write_text("\n".join(lines) + "\n")
        where = re.escape(f"{path}:{len(lines)}: body line {line!r}")
        with pytest.raises(ValueError, match=where):
            read_points(path)

    @pytest.mark.parametrize(
        "key, value, what",
        [
            ("truncation.theta_max", "abc", "a number"),
            ("density", "", "a number"),
            ("k", "", "a number"),
            ("count", "one", "an integer"),
        ],
    )
    def test_bad_header_value_names_its_place(self, tmp_path, key, value, what):
        # each header value that is read as a number names the file, the
        # 1-based line number, the key and the value
        path = tmp_path / "h.txt"
        cloud = PointCloud(np.array([0j, 1j]), "demo", 1.0, k=2.0, truncation={"theta_max": 3.0})
        write_points(path, cloud)
        lines = path.read_text().splitlines()
        number = next(i for i, ln in enumerate(lines, start=1) if ln.startswith(f"# {key}:"))
        lines[number - 1] = f"# {key}: {value}"
        path.write_text("\n".join(lines) + "\n")
        where = re.escape(f"{path}:{number}: header {key} {value!r} is not {what}")
        with pytest.raises(ValueError, match=where):
            read_points(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("density", "nan", "sampling density must be positive, got nan"),
            ("density", "-1", "sampling density must be positive, got -1.0"),
            ("source", "", "source must be a non-empty single line"),
        ],
    )
    def test_refused_header_value_names_the_file(self, tmp_path, key, value, message):
        # a value that reads but that PointCloud refuses names the file
        path = tmp_path / "v.txt"
        write_points(path, PointCloud(np.array([0j, 1j]), "demo", 1.0))
        text = re.sub(f"(?m)^# {key}: .*$", f"# {key}: {value}", path.read_text())
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_points(path)

    @pytest.mark.parametrize("line", ["nan 3", "1 inf"])
    def test_nonfinite_body_line_names_its_place(self, tmp_path, line):
        path = tmp_path / "f.txt"
        write_points(path, PointCloud(np.array([0j, 1j]), "demo", 1.0))
        lines = path.read_text().splitlines()
        lines[-1] = line
        path.write_text("\n".join(lines) + "\n")
        where = re.escape(f"{path}:{len(lines)}: body line {line!r} is not finite")
        with pytest.raises(ValueError, match=where):
            read_points(path)

    def test_empty_body_names_the_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# affsurf points 1\n# source: demo\n# density: 1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: a point cloud cannot be empty")):
            read_points(path)
