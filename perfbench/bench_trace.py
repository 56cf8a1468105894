"""Layer spans for affsurf, recorded from outside the package.

The tracer rebinds the public entry points of six modules (quadrature,
develop, solver, tracking, limitset, cli) to wrappers that record one span
per call: name, start, end, parent span and job id. Module-level functions
are rebound in every affsurf module that imported them by name, because
that is where callers look them up (``affsurf.develop.integrate_segment``,
``affsurf.cli.solve_prevertex``, ...); methods are rebound on the class.
Nothing under ``src/`` is edited.

Some wrappers also record a count where the work happens: integrand nodes
evaluated inside ``integrate_segment``, nodes passed to a derivative
evaluation, accepted tracker steps and whether the track stalled, and the
points of a boundary cloud. ``summarize`` turns spans into additive sums
(so sums from several processes can be added), and ``layer_metrics`` turns
those sums into the values of BENCHMARK.json's per-layer metrics.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the layers' self times partition the traced time.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("quadrature", "develop", "solver", "tracking", "limitset", "cli")

# what each wrapper records besides the span
PLAIN, INTEGRAND_NODES, ARG_NODES, TRACK, CLOUD_POINTS = range(5)

# (module, public name, kind); a dotted name is a method on a class
ENTRY_POINTS = (
    ("affsurf.quadrature", "integrate_segment", INTEGRAND_NODES),
    ("affsurf.quadrature", "integrate_polyline", PLAIN),
    ("affsurf.develop", "DevelopingMap.log_derivative", ARG_NODES),
    ("affsurf.develop", "DevelopingMap.derivative", ARG_NODES),
    ("affsurf.develop", "DevelopingMap.derivative_minus_one", ARG_NODES),
    ("affsurf.develop", "DevelopingMap.tail_integral", PLAIN),
    ("affsurf.develop", "DevelopingMap.develop", PLAIN),
    ("affsurf.develop", "DevelopingMap.develop_at", PLAIN),
    ("affsurf.develop", "DevelopingMap.loop_integral", PLAIN),
    ("affsurf.develop", "DevelopingMap.additive_monodromy_series", PLAIN),
    ("affsurf.solver", "corner_residual", PLAIN),
    ("affsurf.solver", "solve_prevertex", PLAIN),
    ("affsurf.solver", "continuation_sweep", PLAIN),
    ("affsurf.solver", "extract_limit", PLAIN),
    ("affsurf.tracking", "track_level_curve", TRACK),
    ("affsurf.limitset", "rectangle_image_boundary", CLOUD_POINTS),
    ("affsurf.limitset", "limit_image_cloud", CLOUD_POINTS),
    ("affsurf.limitset", "hausdorff_distance", PLAIN),
    ("affsurf.limitset", "convergence_report", PLAIN),
    ("affsurf.cli", "main", PLAIN),
    ("affsurf.cli", "run", PLAIN),
)

# derivative evaluations: a call nested in another one (derivative ->
# log_derivative) is the same nodes and is not counted again
_EVALUATIONS = frozenset(
    "develop.DevelopingMap." + m for m in ("log_derivative", "derivative", "derivative_minus_one")
)

class TraceError(RuntimeError):
    """The tracer cannot measure what the benchmark promises to measure."""


class Tracer:
    """In-memory span recorder; see the module docstring.

    A finished span is the tuple (name, start, end, parent, job, count,
    flag), with parent the index of the enclosing span in ``spans`` (-1 for
    none); an open span holds None in its slot.
    Wrappers record only while ``active`` is true, so set-up and output
    checks between jobs stay out of the trace.
    """

    def __init__(self, job: str = "") -> None:
        self.spans: list = []
        self.stack: list = []
        self.job = job
        self.active = False
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> list:
        """Start a span; returns the live record [name, start, parent, job, count, flag, index]."""
        index = len(self.spans)
        rec = [name, 0.0, self.stack[-1] if self.stack else -1, self.job, 0, 0, index]
        self.stack.append(index)
        self.spans.append(None)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        # a tuple of plain values, which the garbage collector stops
        # tracking; a list of lists would make every collection walk
        # all spans recorded so far
        name, start, parent, job, count, flag, index = rec
        self.spans[index] = (name, start, end, parent, job, count, flag)

    def _wrap(self, name: str, fn, kind: int):
        tracer = self

        if kind == INTEGRAND_NODES:
            def traced(f, *args, **kwargs):
                if not tracer.active:
                    return fn(f, *args, **kwargs)
                rec = tracer.open(name)

                def counted(x):
                    rec[4] += np.size(x)
                    return f(x)

                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer.close(rec)
        elif kind == ARG_NODES:
            def traced(self_, w, *args, **kwargs):
                if not tracer.active:
                    return fn(self_, w, *args, **kwargs)
                rec = tracer.open(name)
                rec[4] = np.size(w)
                try:
                    return fn(self_, w, *args, **kwargs)
                finally:
                    tracer.close(rec)
        else:
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                rec = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                    if kind == TRACK:
                        rec[4] = len(out.s) - 1
                        rec[5] = 0 if out.completed else 1
                    elif kind == CLOUD_POINTS:
                        rec[4] = len(out.points)
                finally:
                    tracer.close(rec)
                return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every entry point; raise TraceError if one is missing."""
        if self._restore:
            raise TraceError("tracer already installed")
        resolved = []
        missing = []
        for module_name, public, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = public.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            found = owner is not None and attr in vars(owner)
            if not found:
                missing.append(f"{module_name}.{public}")
                continue
            resolved.append((module_name, public, kind, owner, attr, bool(owner_name)))
        if missing:
            raise TraceError(
                "public entry points not found: " + ", ".join(missing)
                + "; update perfbench/bench_trace.py ENTRY_POINTS to the new API"
            )
        packages = [m for n, m in list(sys.modules.items()) if n == "affsurf" or n.startswith("affsurf.")]
        for module_name, public, kind, owner, attr, is_method in resolved:
            original = vars(owner)[attr]
            name = module_name.split(".", 1)[1] + "." + public
            wrapped = self._wrap(name, original, kind)
            if is_method:
                self._rebind(owner, attr, wrapped)
                continue
            # a module-level function is looked up wherever it was imported
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------

    def tsv_lines(self):
        """Spans as tab-separated lines in the order of SPAN_HEADER."""
        for i, (name, t0, t1, parent, job, count, flag) in enumerate(self.spans):
            yield f"{i}\t{job}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{count}\t{flag}\n"


SPAN_HEADER = "index\tjob\tname\tstart\tend\tparent\tcount\tflag\n"


def summarize(spans) -> dict:
    """Additive sums over spans: self time per layer and work counts."""
    n = len(spans)
    cover = [0.0] * n
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            cover[parent] += t1 - t0
    sums = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("self_s", "spans")}
    for key in (
        "quadrature.segments", "quadrature.nodes", "develop.calls", "develop.nodes",
        "solver.residuals", "solver.aspects", "solver.residual_nodes", "solver.residual_s",
        "tracking.tracks", "tracking.steps", "tracking.stalled", "tracking.nodes",
        "limitset.boundary_s", "limitset.limit_cloud_s", "limitset.hausdorff_s", "limitset.points",
    ):
        sums[key] = 0.0
    in_residual = [False] * n
    in_track = [False] * n
    for i, (name, t0, t1, parent, job, count, flag) in enumerate(spans):
        dur = t1 - t0
        layer, _, entry = name.partition(".")
        if parent >= 0:
            in_residual[i] = in_residual[parent]
            in_track[i] = in_track[parent]
        if layer in LAYERS:
            sums[f"{layer}.self_s"] += dur - cover[i]
            sums[f"{layer}.spans"] += 1
        if name in _EVALUATIONS:
            if parent < 0 or spans[parent][0] not in _EVALUATIONS:
                sums["develop.calls"] += 1
                sums["develop.nodes"] += count
                if in_track[i]:
                    sums["tracking.nodes"] += count
        elif entry == "integrate_segment":
            sums["quadrature.segments"] += 1
            sums["quadrature.nodes"] += count
            if in_residual[i]:
                sums["solver.residual_nodes"] += count
        elif entry == "corner_residual":
            in_residual[i] = True
            sums["solver.residuals"] += 1
            sums["solver.residual_s"] += dur
        elif entry == "solve_prevertex":
            sums["solver.aspects"] += 1
        elif entry == "track_level_curve":
            in_track[i] = True
            sums["tracking.tracks"] += 1
            sums["tracking.steps"] += count
            sums["tracking.stalled"] += flag
        elif entry == "rectangle_image_boundary":
            sums["limitset.boundary_s"] += dur
            sums["limitset.points"] += count
        elif entry == "limit_image_cloud":
            sums["limitset.limit_cloud_s"] += dur
            sums["limitset.points"] += count
        elif entry == "hausdorff_distance":
            sums["limitset.hausdorff_s"] += dur
    return sums


def add_sums(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0.0) + b.get(k, 0.0) for k in set(a) | set(b)}


def require_layers(sums: dict, layers) -> None:
    """Fail loudly when a layer the workload must reach recorded no calls."""
    silent = [layer for layer in layers if sums.get(f"{layer}.spans", 0.0) == 0]
    if silent:
        raise TraceError(
            "layers recorded zero calls: " + ", ".join(silent)
            + "; a wrapper no longer sits on the path the workload takes"
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    sums: dict, command_s: dict, traced_wall: float, untraced_wall: float, scale: float
) -> dict:
    """Per-layer metric values (name -> number) from sums and command times.

    Every time (name ending in ``_s``) is multiplied by scale.
    """
    s = sums
    values = {
        "quadrature.segments": s["quadrature.segments"],
        "quadrature.nodes": s["quadrature.nodes"],
        "quadrature.nodes_per_segment": _ratio(s["quadrature.nodes"], s["quadrature.segments"]),
        "quadrature.self_s": s["quadrature.self_s"],
        "develop.calls": s["develop.calls"],
        "develop.nodes": s["develop.nodes"],
        "develop.nodes_per_call": _ratio(s["develop.nodes"], s["develop.calls"]),
        "develop.self_s": s["develop.self_s"],
        "solver.residuals": s["solver.residuals"],
        "solver.residuals_per_aspect": _ratio(s["solver.residuals"], s["solver.aspects"]),
        "solver.nodes_per_residual": _ratio(s["solver.residual_nodes"], s["solver.residuals"]),
        "solver.residual_s": s["solver.residual_s"],
        "solver.self_s": s["solver.self_s"],
        "tracking.tracks": s["tracking.tracks"],
        "tracking.steps": s["tracking.steps"],
        "tracking.stalled_ratio": _ratio(s["tracking.stalled"], s["tracking.tracks"]),
        "tracking.nodes_per_step": _ratio(s["tracking.nodes"], s["tracking.steps"]),
        "tracking.self_s": s["tracking.self_s"],
        "limitset.boundary_s": s["limitset.boundary_s"],
        "limitset.limit_cloud_s": s["limitset.limit_cloud_s"],
        "limitset.hausdorff_s": s["limitset.hausdorff_s"],
        "limitset.points": s["limitset.points"],
        "cli.self_s": s["cli.self_s"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for command in ("solve", "sweep", "render", "limit", "hausdorff", "verify"):
        values[f"cli.{command}_s"] = command_s.get(command, 0.0)
    return {k: v * scale if k.endswith("_s") else v for k, v in values.items()}
