"""Flat plane samples with provenance, and their text interchange format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

_MAGIC = "# affsurf points 1"
# header keys whose values are numbers, with their type; every
# truncation.<name> value is a float
_NUMBERS = {"k": float, "density": float, "count": int}


@dataclass(frozen=True)
class PointCloud:
    """A finite plane sample that remembers how it was produced.

    source says which set was sampled, density is the curve sampling rate
    in points per unit length, and truncation carries whatever cutoffs
    shaped the sample (spiral winding, strip depth). The metadata travels
    with the points so later distance comparisons can be judged fairly.
    """

    points: np.ndarray
    source: str
    density: float
    k: Optional[float] = None
    truncation: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=complex).ravel()
        if pts.size == 0:
            raise ValueError("a point cloud cannot be empty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point clouds must be finite")
        if not (self.density > 0 and math.isfinite(self.density)):
            raise ValueError(f"sampling density must be positive, got {self.density}")
        if "\n" in self.source or not self.source.strip():
            raise ValueError("source must be a non-empty single line")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "truncation", dict(self.truncation))

    def __len__(self) -> int:
        return int(self.points.size)


def write_points(path: Union[str, Path], cloud: PointCloud) -> None:
    """One "x y" pair per line under a '#' header.

    Coordinates are written with 17 significant digits, enough for an
    exact float64 round trip.
    """
    lines = [_MAGIC, f"# source: {cloud.source}"]
    if cloud.k is not None:
        lines.append(f"# k: {float(cloud.k)!r}")
    lines.append(f"# density: {float(cloud.density)!r}")
    for key in sorted(cloud.truncation):
        lines.append(f"# truncation.{key}: {float(cloud.truncation[key])!r}")
    lines.append(f"# count: {len(cloud)}")
    lines.extend("%.17g %.17g" % (z.real, z.imag) for z in cloud.points)
    Path(path).write_text("\n".join(lines) + "\n")


def read_points(path: Union[str, Path]) -> PointCloud:
    """The cloud write_points wrote. A header value that is not a number
    where one is due, and a body line that is not two finite numbers,
    raise ValueError naming the path and the 1-based line number; every
    other refusal, PointCloud's among them, names the path."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a point file (bad or missing first line)")
    meta: dict = {}
    trunc: dict = {}
    body = []
    for number, ln in enumerate(lines[1:], start=2):
        if ln.startswith("#"):
            key, sep, value = ln[1:].partition(":")
            if not sep:
                raise ValueError(f"{path}: malformed header line {ln!r}")
            key, value = key.strip(), value.strip()
            kind = float if key.startswith("truncation.") else _NUMBERS.get(key)
            if kind is not None:
                try:
                    value = kind(value)
                except ValueError:
                    what = "an integer" if kind is int else "a number"
                    raise ValueError(f"{path}:{number}: header {key} {value!r} is not {what}") from None
            if key.startswith("truncation."):
                trunc[key[len("truncation."):]] = value
            else:
                meta[key] = value
        elif ln.strip():
            try:
                x, y = map(float, ln.split())
            except ValueError:
                raise ValueError(f"{path}:{number}: body line {ln!r} is not two numbers") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{number}: body line {ln!r} is not finite")
            body.append(complex(x, y))
    for required in ("source", "density"):
        if required not in meta:
            raise ValueError(f"{path}: header lacks {required}")
    try:
        cloud = PointCloud(
            np.array(body, dtype=complex), meta["source"], meta["density"], k=meta.get("k"), truncation=trunc
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if "count" in meta and meta["count"] != len(cloud):
        raise ValueError(f"{path}: count says {meta['count']}, found {len(cloud)}")
    return cloud
