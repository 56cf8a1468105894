"""Checks of the benchmark itself: work counts repeat, seeds matter, tracing fails loudly.

    python3 -m pytest -q perfbench/check_counts.py

The count check traces the first batch of solve-cold and of boundary-trace
twice each, which takes about a minute; cli-default is left out because
its batch is six command processes (about a minute traced). The file name
keeps the repository's own test run from collecting it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest

import bench_trace
from bench_trace import TraceError, Tracer, layer_metrics, require_layers, summarize
from bench_workloads import WORKLOADS, Context
from run import run_batch

COUNTS = ("develop.nodes", "quadrature.segments", "solver.residuals", "tracking.steps")


def _traced_counts(name: str, seed: int, work: Path) -> dict:
    workload = WORKLOADS[name]
    ctx = Context(root=HERE.parent, work=work, env={})
    inputs = workload.inputs(seed, 0)
    state: dict = {}
    workload.prepare(inputs, ctx, state)
    tracer = Tracer()
    with tracer.installed():
        batch = run_batch(workload, inputs, ctx, "t", tracer, state)
    assert batch.failed == 0
    sums = summarize(tracer.spans)
    require_layers(sums, workload.must_reach)
    return {key: sums[key] for key in COUNTS}


@pytest.mark.parametrize("name", ["solve-cold", "boundary-trace"])
def test_traced_counts_repeat_for_one_seed(name, tmp_path):
    first = _traced_counts(name, 7, tmp_path)
    second = _traced_counts(name, 7, tmp_path)
    assert first == second
    assert first["quadrature.segments"] > 0 and first["develop.nodes"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_and_batch_change_the_inputs(name):
    workload = WORKLOADS[name]
    assert workload.inputs(7, 0) == workload.inputs(7, 0)
    assert workload.inputs(7, 0) != workload.inputs(8, 0)
    assert workload.inputs(7, 0) != workload.inputs(7, 1)


def test_missing_entry_point_fails_loudly(monkeypatch):
    bogus = bench_trace.ENTRY_POINTS + (("affsurf.solver", "no_such_function", bench_trace.PLAIN),)
    monkeypatch.setattr(bench_trace, "ENTRY_POINTS", bogus)
    tracer = Tracer()
    with pytest.raises(TraceError, match="affsurf.solver.no_such_function"):
        tracer.install()
    assert not tracer._restore


def test_silent_layer_fails_loudly():
    sums = summarize([])
    with pytest.raises(TraceError, match="tracking"):
        require_layers(sums, ("quadrature", "tracking"))


def test_install_rebinds_by_name_imports_and_restores():
    import affsurf.develop
    import affsurf.quadrature
    import affsurf.tracking

    original = affsurf.quadrature.integrate_segment
    with Tracer().installed():
        for module in (affsurf.quadrature, affsurf.develop, affsurf.tracking):
            assert module.integrate_segment is not original
            assert module.integrate_segment.__wrapped__ is original
    for module in (affsurf.quadrature, affsurf.develop, affsurf.tracking):
        assert module.integrate_segment is original


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = layer_metrics(summarize([]), {}, 1.0, 1.0, 1.0)
    assert list(values) and set(values) == {m["name"] for m in spec["per_layer"]}
