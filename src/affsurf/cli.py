"""Command line front end.

Subcommands: solve, sweep, render, limit, hausdorff, verify. Every run
writes one structured report whose manifest lists each emitted file, and
identical configurations produce byte-identical outputs, so reports and
figures diff cleanly across reruns. Exit codes: 0 all checks pass, 1 a
check failed or is inconclusive (a curve it measured stopped short), 2
bad usage, 3 a numerical stage gave up (an ArithmeticError).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from . import checks
from .checks import k_label
from .limitset import (
    STRIP_DEPTH,
    convergence_report,
    limit_image_cloud,
    rectangle_image_boundary,
)
from .pointcloud import PointCloud, write_points
from .solver import continuation_sweep, extract_limit, solve_prevertex
from .svg import PALETTE, PlaneCurve, figure

class UsageError(Exception):
    pass


def _decades(lo: int, hi: int) -> Tuple[float, ...]:
    return tuple(10.0**j for j in range(lo, hi + 1))


def _number(name: str, value) -> float:
    """A numeric setting as a float; booleans and non-numbers are refused."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise UsageError(f"{name} must be a number, got {value!r}")


def _seed(value) -> int:
    """The seed as an int: integers, integral floats and integer strings."""
    seed = value
    if isinstance(seed, str):
        try:
            seed = int(seed)
        except ValueError:
            pass
    elif isinstance(seed, float) and seed.is_integer():
        seed = int(seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {value!r}")
    return seed


# the most aspects a start:stop:count span may ask for; each is a solve
MAX_SPAN_COUNT = 1000
# the finest curve sampling; render --k 2 writes 29 MB at twice this
MAX_DENSITY = 1e5


def _aspects(name: str, raw, spans: bool = False) -> Tuple[float, ...]:
    """Sorted distinct aspects from a number, a comma-separated string or a
    list of either. With spans, a whole string start:stop:count gives count
    aspects spaced geometrically from start to stop, ending exactly on both,
    at most MAX_SPAN_COUNT."""
    if spans and isinstance(raw, str) and ":" in raw:
        try:
            a, b, n = raw.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError:
            raise UsageError(f"{name} must be start:stop:count, got {raw!r}") from None
        if not (0 < a <= b < math.inf) or not 2 <= n <= MAX_SPAN_COUNT:
            raise UsageError(
                f"{name} needs 0 < start <= stop < inf and 2 <= count <= {MAX_SPAN_COUNT}, got {raw!r}"
            )
        spaced = [float(10.0**e) for e in np.linspace(math.log10(a), math.log10(b), n)]
        # the powers of 10 may miss the ends by an ulp, as 5.000000000000001
        spaced[0], spaced[-1] = a, b
        return tuple(sorted(set(spaced)))
    items = () if raw is None else raw if isinstance(raw, (list, tuple)) else [raw]
    values = set()
    for item in items:
        for tok in item.split(",") if isinstance(item, str) else [item]:
            if not (isinstance(tok, str) and not tok.strip()):
                values.add(_number(name, tok))
    return tuple(sorted(values))


def _setting(default, metavar: str, help: Optional[str] = None, **flag):
    """A RunConfig field whose metadata holds the add_argument keywords of its flag."""
    return field(default=default, metadata={"metavar": metavar, "help": help, **flag})


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one invocation.

    The field defaults are the only defaults, and each setting's metadata
    describes its flag. Flags, a config file and make_config all pass raw
    values, which __post_init__ coerces and checks once. An empty aspect
    list takes the command's fallback: verify checks 2, 5 and 1000;
    hausdorff compares the decades 1e2 to 1e6, and the other commands
    sweep 1e1 to 1e8.
    """

    command: str
    k: Tuple[float, ...] = _setting(
        (), "K", "aspect ratio, repeatable or comma separated; 'inf' draws the limit (render only)",
        action="append",
    )
    k_grid: Tuple[float, ...] = _setting(
        (), "SPEC", "aspect grid, 'start:stop:count' (geometric) or a comma list"
    )
    tol_solver: float = _setting(1e-10, "T")
    tol_quad: float = _setting(1e-12, "T")
    theta_max: float = _setting(8.0 * math.pi, "R", "spiral winding cutoff in radians")
    density: float = _setting(250.0, "D", f"curve sampling, points per unit length, at most {MAX_DENSITY:g}")
    out: str = _setting("out", "PATH", "output directory, or a .json path for the report")
    seed: int = _setting(0, "N", "seed for sampled checks")
    format: str = _setting("svg", "{svg,txt}")

    def __post_init__(self) -> None:
        command = self.command
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        for name in ("tol_solver", "tol_quad", "theta_max", "density"):
            v = _number(name, getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise UsageError(f"{name} must be a positive number, got {v!r}")
            object.__setattr__(self, name, v)
        if self.density > MAX_DENSITY:
            raise UsageError(f"density must be at most {MAX_DENSITY:g}, got {self.density!r}")
        if not self.tol_solver > self.tol_quad:
            raise UsageError(f"tol_solver {self.tol_solver!r} must be above tol_quad {self.tol_quad!r}")
        if command == "verify" and not self.tol_solver < checks.SOLVER_RESIDUAL_MAX:
            raise UsageError(
                f"tol_solver {self.tol_solver!r} must be below verify's residual bound "
                f"{checks.SOLVER_RESIDUAL_MAX!r}"
            )
        if self.format not in ("svg", "txt"):
            raise UsageError(f"format must be svg or txt, got {self.format!r}")
        object.__setattr__(self, "seed", _seed(self.seed))
        ks = _aspects("k", self.k)
        if not ks and command in ("solve", "render"):
            raise UsageError(f"{command} needs at least one --k")
        if not ks and command == "verify":
            ks = (2.0, 5.0, 1000.0)
        for v in ks:
            if not v >= 1.0:
                raise UsageError(f"aspects start at 1, got {v}")
            if math.isinf(v) and command != "render":
                raise UsageError("aspect inf is only drawable; use render, limit, or sweep")
        grid = _aspects("k_grid", self.k_grid, spans=True)
        if not grid:
            grid = _decades(2, 6) if command == "hausdorff" else _decades(1, 8)
        for v in grid:
            if not (v >= 1.0 and math.isfinite(v)):
                raise UsageError(f"grid aspects must be finite and >= 1, got {v}")
        needs_sweep = command in ("sweep", "limit") or (
            command == "render" and any(math.isinf(v) for v in ks)
        )
        if needs_sweep and len([v for v in grid if v > 1.0]) < 3:
            raise UsageError("extrapolation needs a grid of at least three aspects above 1")
        object.__setattr__(self, "k", ks)
        object.__setattr__(self, "k_grid", grid)
        object.__setattr__(self, "out", str(self.out))

    def as_dict(self) -> dict:
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**echo, "k": [k_label(v) for v in self.k], "k_grid": list(self.k_grid)}


# what a flag, a config file or make_config may set
_SETTINGS = tuple(f.name for f in fields(RunConfig) if f.name != "command")


def make_config(command: str, **settings) -> RunConfig:
    """RunConfig of one command; settings not given keep their defaults."""
    for key in settings:
        if key not in _SETTINGS:
            raise UsageError(f"unknown setting {key!r}")
    return RunConfig(command, **settings)


def _sha256(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, allow_nan=False).encode()
    ).hexdigest()


def _plain(value):
    """Recursively reduce to json-serializable builtins; complex -> [re, im]."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


@dataclass(frozen=True)
class RunReport:
    command: str
    config: dict
    config_sha256: str
    steps: Tuple[dict, ...]
    results: dict
    manifest: Tuple[str, ...]
    status: str

    def to_json(self) -> str:
        return json.dumps(_plain(asdict(self)), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _resolve_out(config: RunConfig) -> Tuple[Path, Path, str]:
    out = Path(config.out)
    if out.suffix == ".json":
        return out.parent, out, out.stem + "."
    return out, out / "report.json", ""


# step statuses that make a run fail (exit 1)
_FAILING = ("fail", "inconclusive")


class _Recorder:
    def __init__(self, out_dir: Path, prefix: str):
        self.out_dir = out_dir
        self.prefix = prefix
        self.steps: list = []
        self.files: list = []

    def step(
        self,
        name: str,
        problems: Sequence[str],
        detail: Optional[dict] = None,
        incomplete: Optional[dict] = None,
    ) -> bool:
        """Record one step and return whether it passed.

        problems holds one string per violated clause; any fail the step
        and go into its detail. incomplete holds the notes of curves that
        stopped short; any make the step "inconclusive", as a check's
        "inconclusive" verdict in detail does.
        """
        status = "fail" if problems else "ok"
        if problems:
            detail = {**(detail or {}), "problems": list(problems)}
        if incomplete:
            detail = {**(detail or {}), "incomplete": incomplete}
        if incomplete or (detail or {}).get("verdict") == "inconclusive":
            status = "inconclusive"
        entry = {"name": name, "status": status}
        if detail:
            entry["detail"] = _plain(detail)
        self.steps.append(entry)
        return status == "ok"

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / (self.prefix + name)
        path.write_text(text)
        self.files.append(path.name)
        return path

    def write_cloud(self, name: str, cloud: PointCloud) -> Path:
        path = self.out_dir / (self.prefix + name)
        write_points(path, cloud)
        self.files.append(path.name)
        return path


def _table(title: str, columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [f"# affsurf {title}", "# columns: " + " ".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append("%.17g" % cell)
            else:
                cells.append(str(cell))
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def _run_solve(config: RunConfig, rec: _Recorder) -> dict:
    sols = continuation_sweep(config.k, tol=config.tol_solver, quad_tol=config.tol_quad)
    solves = []
    for sol in sols:
        rec.step(
            f"solve k={k_label(sol.K)}",
            (),
            {"residual": sol.residual, "iterations": sol.iterations},
        )
        solves.append(
            {
                "k": k_label(sol.K),
                "z1": sol.prevertex,
                "residual": sol.residual,
                "iterations": sol.iterations,
                "evaluations": sol.evaluations,
                "converged": sol.converged,
            }
        )
    return {"solves": solves, "residual": max(s.residual for s in sols)}


def _fit_fields(est) -> dict:
    """The limit fit as the extrapolate step and the sweep and limit results give it."""
    return {
        "x0": est.x0,
        "tau": est.tau,
        "x0_stability": est.x0_stability,
        "tau_stability": est.tau_stability,
    }


def _sweep_fit(config: RunConfig, rec: _Recorder, grid: Sequence[float]):
    """The solves over grid and their limit fit, each recorded as a step.

    A fit without a limit map raises ArithmeticError (see LimitEstimate).
    """
    sols = continuation_sweep(grid, tol=config.tol_solver, quad_tol=config.tol_quad)
    rec.step(
        f"sweep {len(sols)} aspects",
        (),
        {"max_residual": max(s.residual for s in sols)},
    )
    est = extract_limit(sols)
    rec.step("extrapolate", (), _fit_fields(est))
    return sols, est


def _run_sweep(config: RunConfig, rec: _Recorder) -> dict:
    sols, est = _sweep_fit(config, rec, config.k_grid)
    rows = [
        (k_label(s.K), s.prevertex.real, s.prevertex.imag, s.residual, s.iterations)
        for s in sols
    ]
    rec.write_text("sweep.txt", _table("sweep", ("k", "re_z1", "im_z1", "residual", "iterations"), rows))
    return {
        "aspects": [k_label(s.K) for s in sols],
        **_fit_fields(est),
        "points_used": est.points_used,
        "hole_shift_magnitude": checks.hole_shift(est),
    }


def _drawn(config: RunConfig, K: float, fit):
    """The boundary cloud drawn at aspect K, its step detail and its point-file header.

    A finite K is solved and its rectangle boundary traced; K = inf traces
    the limit cloud of fit. The header holds every PointCloud field but the
    points.
    """
    spacing = 1.0 / config.density
    header = {"density": config.density, "k": K}
    if math.isinf(K):
        cloud = limit_image_cloud(
            fit.x0, fit.tau, theta_max=config.theta_max, spacing=spacing, quad_tol=config.tol_quad
        )
        truncation = {"theta_max": config.theta_max, "strip_depth": STRIP_DEPTH}
        header.update(source="limit-boundary", truncation=truncation)
        return cloud, {"points": len(cloud.points)}, header
    sol = solve_prevertex(K, tol=config.tol_solver, quad_tol=config.tol_quad)
    cloud = rectangle_image_boundary(sol.member, spacing=spacing, quad_tol=config.tol_quad)
    header["source"] = "rectangle-boundary"
    return cloud, {"residual": sol.residual, "points": len(cloud.points)}, header


# pieces drawn as dots: a finite boundary's corner prevertices and the
# limit cloud's singular points; no cloud has both
_MARKERS = ("prevertices", "singular_points")


def _run_render(config: RunConfig, rec: _Recorder) -> dict:
    entries = []
    fit = None
    for K in config.k:
        if math.isinf(K) and fit is None:
            _, fit = _sweep_fit(config, rec, config.k_grid)
        cloud, detail, header = _drawn(config, K, fit)
        label = k_label(K)
        rec.step(f"boundary k={label}", (), detail, cloud.incomplete)
        entries.append((label, cloud, header))

    if config.format == "svg":
        curves, dots = [], []
        for i, (label, cloud, _) in enumerate(entries):
            color = PALETTE[i % len(PALETTE)]
            for piece in sorted(cloud.pieces):
                pts = np.asarray(cloud.pieces[piece])
                drawn = dots if piece in _MARKERS or pts.size < 2 else curves
                drawn.append(PlaneCurve(f"k{label}-{piece}", pts, color))
        rec.write_text("figure.svg", figure(curves, dots))
    else:
        for label, cloud, header in entries:
            rec.write_cloud(f"cloud_k{label}.txt", PointCloud(cloud.points, **header))
    return {
        "rendered": [
            {"k": label, "points": len(cloud.points), "pieces": len(cloud.pieces)}
            for label, cloud, _ in entries
        ],
        "format": config.format,
    }


def _run_limit(config: RunConfig, rec: _Recorder) -> dict:
    _, fit = _sweep_fit(config, rec, config.k_grid)
    cloud, detail, header = _drawn(config, math.inf, fit)
    if cloud.incomplete:
        rec.step("boundary k=inf", (), detail, cloud.incomplete)
    rec.write_cloud("limit.txt", PointCloud(cloud.points, **header))
    return {**_fit_fields(fit), "points": len(cloud.points), "pieces": sorted(cloud.pieces)}


def _run_hausdorff(config: RunConfig, rec: _Recorder) -> dict:
    # the decades 1e1..1e8 give the limit fit and criterion 06 its aspects
    sols, fit = _sweep_fit(config, rec, sorted(set(config.k_grid) | set(_decades(1, 8))))
    for name, check in (
        ("limit-data", checks.limit_data),
        ("connection-convergence", checks.connection_convergence),
    ):
        problems, detail = check(sols, fit)
        rec.step(name, problems, detail)
    report = convergence_report(
        config.k_grid,
        sols,
        fit,
        theta_max=config.theta_max,
        spacing=1.0 / config.density,
        quad_tol=config.tol_quad,
    )
    rows = [
        (k_label(r["K"]), r["hausdorff"], r["boundary_points"]) for r in report["rows"]
    ]
    rec.write_text("hausdorff.txt", _table("hausdorff", ("k", "hausdorff", "boundary_points"), rows))
    problems, detail = checks.hausdorff_convergence(report)
    rec.step("hausdorff-convergence", problems, detail, report.get("incomplete"))
    return {**report, **detail}


# ------------------------------------------------------------------ verify


def _run_verify(config: RunConfig, rec: _Recorder) -> dict:
    @functools.lru_cache(maxsize=None)
    def solve(K):
        return solve_prevertex(K, tol=config.tol_solver, quad_tol=config.tol_quad)

    incomplete = {}

    def boundary(K):
        cloud = rectangle_image_boundary(
            solve(K).member, spacing=1.0 / config.density, quad_tol=config.tol_quad
        )
        if cloud.incomplete:
            incomplete[f"k={k_label(K)}"] = cloud.incomplete
        return cloud.points

    def residuals():
        cold = {K: solve(K) for K in config.k}
        # each warm solve starts from the solved member at the square root of K
        warm = {
            K: solve_prevertex(
                K, solve(math.sqrt(K)).prevertex, tol=config.tol_solver, quad_tol=config.tol_quad
            )
            for K in config.k
        }
        return checks.solver_residuals(cold, warm)

    sym_k = next((K for K in config.k if K > 1.0), 2.0)
    label = k_label(sym_k)
    xs = np.random.default_rng(config.seed).uniform(-6.0, 6.0, 64)

    def reflection():
        problems, detail = checks.reflection_symmetry(
            {label: boundary(sym_k)}, [(label, solve(sym_k).member, xs)]
        )
        return problems, {"k": label, **detail}

    # in the order verify runs and prints them; each check's inputs are
    # computed when it runs, so a numerical failure still leaves the steps
    # before it in the report
    suite = (
        ("square-identity", lambda: checks.square_identity(solve(1.0), boundary(1.0))),
        ("solver-residuals", residuals),
        ("corner-holonomy", lambda: checks.corner_holonomy(config.k)),
        (
            "hole-loop-translation",
            lambda: checks.hole_loop_translation((solve(2.0), solve(5.0)), config.tol_quad),
        ),
        ("reflection-symmetry", reflection),
        ("chart-transitions", checks.chart_transitions),
        ("separation-scenarios", checks.separation_scenarios),
    )
    failed = []
    for name, outcome in suite:
        incomplete.clear()
        problems, detail = outcome()
        if not rec.step(name, problems, detail, dict(incomplete)):
            failed.append(name)
    return {"checks": [name for name, _ in suite], "failed": failed}


# each command's handler and help line, in the order the help lists them
_COMMANDS = {
    "solve": (_run_solve, "solve the corner condition at one or more aspects"),
    "sweep": (_run_sweep, "prevertex solves over an aspect grid plus limit extrapolation"),
    "render": (_run_render, "draw boundary curves (finite aspects and/or 'inf') as a figure"),
    "limit": (_run_limit, "build and save the limit boundary configuration"),
    "hausdorff": (_run_hausdorff, "distance trend from finite boundaries to the limit"),
    "verify": (_run_verify, "run the property suite and report pass/fail per check"),
}


def run(config: RunConfig) -> RunReport:
    """Execute one command and write its report.

    A numerical stage that gives up raises ArithmeticError; it is folded
    into the report as an error step with status "error", which main maps
    to exit 3. Any other exception is a bug and propagates.
    """
    out_dir, report_path, prefix = _resolve_out(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = _Recorder(out_dir, prefix)
    results: dict = {}
    status = "pass"
    try:
        results = _COMMANDS[config.command][0](config, rec)
        if any(s["status"] in _FAILING for s in rec.steps):
            status = "fail"
    except ArithmeticError as exc:
        rec.steps.append(
            {
                "name": "numerical-failure",
                "status": "error",
                "detail": {"message": f"{type(exc).__name__}: {exc}"},
            }
        )
        status = "error"
    cfg = config.as_dict()
    manifest = tuple(sorted(set(rec.files) | {report_path.name}))
    report = RunReport(
        command=config.command,
        config=cfg,
        config_sha256=_sha256(cfg),
        steps=tuple(rec.steps),
        results=_plain(results),
        manifest=manifest,
        status=status,
    )
    report_path.write_text(report.to_json())
    return report


# --------------------------------------------------------------- front end


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON file supplying any of the flags")
    # the setting flags; each value is checked once, by RunConfig
    for f in fields(RunConfig):
        if f.name in _SETTINGS:
            common.add_argument("--" + f.name.replace("_", "-"), **f.metadata)

    parser = argparse.ArgumentParser(
        prog="affsurf",
        description="Numerics for a family of glued affine surfaces and its limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_line) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_line)
    return parser


def _build_config(ns: argparse.Namespace) -> RunConfig:
    settings = {}
    if ns.config:
        path = Path(ns.config)
        try:
            loaded = json.loads(path.read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm not in _SETTINGS:
                raise UsageError(f"config file sets unknown key {key!r}")
            settings[norm] = value
    for key in _SETTINGS:
        value = getattr(ns, key, None)
        if value is not None:
            settings[key] = value
    return make_config(ns.command, **settings)


# how a step status is printed; every other status prints as FAIL
_STATUS_WORD = {"ok": "PASS", "inconclusive": "INCONCLUSIVE"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _build_config(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except OSError as exc:
        print(f"usage error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    if config.command == "verify":
        for step in report.steps:
            print(_STATUS_WORD.get(step["status"], "FAIL") + " " + step["name"])
    _, report_path, _ = _resolve_out(config)
    if report.status == "pass":
        print(f"PASS {config.command}: report at {report_path}")
        return 0
    if report.status == "fail":
        first = next(s for s in report.steps if s["status"] in _FAILING)
        print(f"{_STATUS_WORD.get(first['status'], 'FAIL')} {config.command}: {first['name']}")
        return 1
    message = report.steps[-1]["detail"]["message"] if report.steps else "unknown"
    print(f"ERROR {config.command}: {message}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
