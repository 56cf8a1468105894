#!/usr/bin/env python3
"""Time the boundary path of a revision and of the working tree in one process.

    tools/ab_boundary.py REV

Exports REV's src (git archive) into a temporary directory and loads its
src/affsurf and the working tree's under two package names, so both trees
run in one interpreter and see the same host speed batch by batch. Runs 24
batches in the shape of perfbench's boundary-trace workload: each batch
solves a sweep over its aspects and the decades 1e1 .. 1e8 and fits the
limit (untimed), then times the limit cloud of that fit and eight aspects,
two log-uniform in each decade band of [1e2, 1e6], each through
rectangle_image_boundary and hausdorff_distance to the cloud. The tree that
runs a batch first alternates.

Exits 1 naming the first job whose output bytes differ between the trees.
Otherwise prints each tree's median batch and job time, and the median and
quartiles of the per-batch time ratio, working tree over REV.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
BATCHES = 24
DECADES = tuple(10.0**j for j in range(1, 9))
BANDS = tuple(band for band in ((1e2, 1e3), (1e3, 1e4), (1e4, 1e5), (1e5, 1e6)) for _ in range(2))


def load(name: str, src: Path):
    """src/affsurf imported as the package name, with its submodules."""
    spec = importlib.util.spec_from_file_location(
        name, src / "affsurf" / "__init__.py", submodule_search_locations=[str(src / "affsurf")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def aspects(index: int) -> list:
    rng = np.random.default_rng([7, index])
    return sorted(math.exp(rng.uniform(math.log(lo), math.log(hi))) for lo, hi in BANDS)


def batch(affsurf, inputs: list) -> tuple[list, list]:
    """(job times, output bytes) of one batch, the limit cloud's first."""
    sols = affsurf.continuation_sweep(sorted(set(inputs) | set(DECADES)))
    z1 = {s.K: s.prevertex for s in sols}
    fit = affsurf.extract_limit(sols)
    times, outputs = [], []
    start = time.perf_counter()
    cloud = affsurf.limit_image_cloud(fit.x0, fit.tau).points
    times.append(time.perf_counter() - start)
    outputs.append(cloud.tobytes())
    for K in inputs:
        start = time.perf_counter()
        dev = affsurf.DevelopingMap.from_aspect(K, z1[K])
        pts = affsurf.rectangle_image_boundary(dev).points
        distance = affsurf.hausdorff_distance(pts, cloud)
        times.append(time.perf_counter() - start)
        outputs.append(pts.tobytes() + float(distance).hex().encode())
    return times, outputs


def main(argv: list) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: tools/ab_boundary.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", argv[0], "src"], check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"rev": load("affsurf_rev", Path(tmp) / "src"), "work": load("affsurf_work", REPO / "src")}
        jobs = {side: [] for side in trees}
        batches = {side: [] for side in trees}
        for index in range(BATCHES):
            inputs = aspects(index)
            order = ("rev", "work") if index % 2 == 0 else ("work", "rev")
            outputs = {}
            for side in order:
                times, outputs[side] = batch(trees[side], inputs)
                jobs[side] += times
                batches[side].append(sum(times))
            names = ["limit_image_cloud"] + [f"rectangle_image_boundary K={K:.6g}" for K in inputs]
            for name, a, b in zip(names, outputs["rev"], outputs["work"]):
                if a != b:
                    print(f"batch {index}, {name}: output bytes differ")
                    return 1
    for side in trees:
        print(f"{side}: batch median {statistics.median(batches[side]):.4f} s, "
              f"job median {statistics.median(jobs[side]):.5f} s")
    ratio = [w / r for w, r in zip(batches["work"], batches["rev"])]
    q1, q2, q3 = statistics.quantiles(ratio, n=4)
    print(f"work/rev batch ratio over {BATCHES} batches: median {statistics.median(ratio):.4f}, "
          f"quartiles {q1:.4f} .. {q3:.4f}, work faster in {sum(r < 1.0 for r in ratio)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
