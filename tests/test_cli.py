"""Front end behavior: flags, config merging, files, exit codes."""

import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from affsurf import checks, cli, limitset, solver, tracking
from affsurf.develop import DevelopingMap
from affsurf.cli import UsageError, main, make_config, run
from affsurf.pointcloud import read_points


class TestConfig:
    def test_verify_defaults(self):
        c = make_config("verify")
        assert c.k == (2.0, 5.0, 1000.0)
        assert c.density == 250.0
        assert c.format == "svg"
        assert c.theta_max == pytest.approx(8 * math.pi)

    def test_k_comma_and_list_forms_agree(self):
        assert make_config("solve", k="2,5").k == make_config("solve", k=["2", "5"]).k

    def test_k_sorted_and_deduplicated(self):
        assert make_config("solve", k="5,2,2").k == (2.0, 5.0)

    def test_k_list_items_may_hold_commas(self):
        assert make_config("solve", k=["2,5", 7]).k == (2.0, 5.0, 7.0)

    def test_k_refuses_booleans_and_grid_specs(self):
        for k in ([True], "1:10:3"):
            with pytest.raises(UsageError, match="^k "):
                make_config("solve", k=k)

    def test_grid_list_items_may_hold_commas(self):
        assert make_config("sweep", k_grid=["10,100", 1000]).k_grid == (10.0, 100.0, 1000.0)

    def test_grid_spec_only_as_the_whole_setting(self):
        with pytest.raises(UsageError, match="^k_grid "):
            make_config("sweep", k_grid=["1e1:1e3:3"])

    def test_geometric_grid_spec(self):
        c = make_config("sweep", k_grid="1e1:1e4:4")
        assert c.k_grid == (10.0, 100.0, 1000.0, 10000.0)

    def test_comma_grid_spec(self):
        assert make_config("hausdorff", k_grid="100,10,1000").k_grid == (10.0, 100.0, 1000.0)

    def test_default_grids_differ_by_command(self):
        assert make_config("hausdorff").k_grid[0] == 100.0
        assert make_config("sweep").k_grid[0] == 10.0

    def test_render_accepts_inf(self):
        assert math.isinf(make_config("render", k="inf").k[-1])

    def test_solve_rejects_inf(self):
        with pytest.raises(UsageError):
            make_config("solve", k="inf")

    def test_requires_aspects_where_needed(self):
        with pytest.raises(UsageError):
            make_config("solve")
        with pytest.raises(UsageError):
            make_config("render")

    def test_rejects_small_aspects(self):
        with pytest.raises(UsageError):
            make_config("solve", k="0.5")

    def test_rejects_bad_tolerances(self):
        with pytest.raises(UsageError):
            make_config("verify", tol_solver=0.0)
        with pytest.raises(UsageError):
            make_config("verify", tol_quad=-1e-9)
        with pytest.raises(UsageError):
            make_config("verify", density=True)

    def test_rejects_bad_format_and_seed(self):
        with pytest.raises(UsageError):
            make_config("render", k="2", format="png")
        with pytest.raises(UsageError):
            make_config("verify", seed=-1)
        for seed in (True, 3.7):
            with pytest.raises(UsageError):
                make_config("verify", seed=seed)

    def test_rejects_short_extrapolation_grid(self):
        with pytest.raises(UsageError):
            make_config("sweep", k_grid="10,100")

    def test_distinct_aspects_echo_distinct_labels(self):
        # 12 digits would print 1.000000000001 as "1", the label of K = 1
        near = make_config("verify", k="1.000000000001").as_dict()
        square = make_config("verify", k="1").as_dict()
        assert (near["k"], square["k"]) == (["1.000000000001"], ["1"])
        assert cli._sha256(near) != cli._sha256(square)
        assert make_config("render", k="2,1000,inf").as_dict()["k"] == ["2", "1000", "inf"]

    def test_config_file_and_make_config_agree(self, tmp_path):
        # both take raw values through the same coercion and checks
        settings = {"k": [5], "density": 40, "seed": "3", "tol_solver": "1e-9"}
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(settings))
        ns = cli._build_parser().parse_args(["solve", "--config", str(cfg)])
        from_file = cli._build_config(ns)
        assert from_file == make_config("solve", **settings)
        assert (from_file.seed, from_file.density) == (3, 40.0)

    def test_rejects_unknown_setting(self):
        with pytest.raises(UsageError):
            make_config("verify", colour="red")
        with pytest.raises(UsageError, match="unknown setting"):
            make_config("verify", strip_depth=40.0)


class TestReports:
    def test_solve_report_shape(self, tmp_path):
        out = tmp_path / "s.json"
        report = run(make_config("solve", k="1", out=str(out)))
        assert report.status == "pass"
        on_disk = json.loads(out.read_text())
        assert on_disk["results"]["residual"] < 1e-10
        assert on_disk["results"]["solves"][0]["z1"] == [1.0, 1.0]
        assert on_disk["manifest"] == ["s.json"]
        assert on_disk["config_sha256"] == report.config_sha256

    def test_solve_takes_few_residuals_per_aspect(self, tmp_path, monkeypatch):
        # each aspect starts from the square or the limit and needs about
        # nine residuals
        cold = {K: solver.solve_prevertex(K).prevertex for K in (2.0, 5.0, 1000.0)}
        calls = []
        residual = solver.corner_residual
        monkeypatch.setattr(
            solver, "corner_residual", lambda *a, **kw: calls.append(a) or residual(*a, **kw)
        )
        report = run(make_config("solve", k="2,5,1000", out=str(tmp_path / "s")))
        assert report.status == "pass"
        assert len(calls) <= 30
        solves = report.results["solves"]
        assert [s["k"] for s in solves] == ["2", "5", "1000"]
        for s in solves:
            assert abs(complex(*s["z1"]) - cold[float(s["k"])]) < 1e-8

    def test_json_out_prefixes_artifacts(self, tmp_path):
        out = tmp_path / "runA.json"
        report = run(make_config("sweep", k_grid="1e1:1e3:3", out=str(out)))
        assert report.status == "pass"
        assert set(report.manifest) == {"runA.json", "runA.sweep.txt"}
        assert (tmp_path / "runA.sweep.txt").exists()

    def test_manifest_lists_every_file(self, tmp_path):
        run(make_config("render", k="1", density=40, out=str(tmp_path / "r")))
        on_disk = sorted(p.name for p in (tmp_path / "r").iterdir())
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert on_disk == report["manifest"]

    def test_reruns_byte_identical(self, tmp_path):
        config = make_config("verify", k="2", density=50, out=str(tmp_path / "v"))
        run(config)
        first = (tmp_path / "v" / "report.json").read_bytes()
        run(config)
        assert (tmp_path / "v" / "report.json").read_bytes() == first

    def test_verdicts_stable_across_seeds(self, tmp_path):
        # the sampled checks must not be seed-lucky, and the seed is part
        # of the configuration identity
        a = run(make_config("verify", k="2", density=50, seed=1, out=str(tmp_path / "a")))
        b = run(make_config("verify", k="2", density=50, seed=9, out=str(tmp_path / "b")))
        assert a.status == b.status == "pass"
        assert a.config_sha256 != b.config_sha256

    def test_numerical_failure_is_reported_not_raised(self, tmp_path):
        # just above the square the right axis crossing is not bracketed
        # before the singular scale
        config = make_config(
            "render", k="1.000000000001", format="txt", density=30, out=str(tmp_path / "f")
        )
        report = run(config)
        assert report.status == "error"
        assert report.steps[-1]["status"] == "error"
        assert report.steps[-1]["detail"]["message"] == (
            "ArithmeticError: no sign change toward the singular point"
        )
        # the report still lands on disk for inspection
        assert (tmp_path / "f" / "report.json").exists()


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        assert main(["solve", "--k", "1", "--out", str(tmp_path / "ok")]) == 0

    def test_usage_is_two(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path / "u")]) == 2
        assert main(["solve", "--k", "0.2", "--out", str(tmp_path / "u")]) == 2
        assert main(["solve", "--k", "2", "--config", str(tmp_path / "no.json")]) == 2
        # a config file is held to the same rules as make_config
        for bad in ({"seed": 3.7}, {"seed": True}, {"density": True}):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(bad))
            assert main(["solve", "--k", "2", "--config", str(cfg), "--out", str(tmp_path / "u")]) == 2

    @pytest.mark.parametrize(
        "flag, value, setting",
        [
            ("--seed", "1.5", "seed"),
            ("--format", "png", "format"),
            ("--tol-solver", "abc", "tol_solver"),
            ("--k", "x", "k"),
            ("--k-grid", "1:10", "k_grid"),
            ("--k-grid", "1e1:1e3:1", "k_grid"),
            ("--k-grid", "1e1:inf:3", "k_grid"),
        ],
    )
    def test_bad_flag_value_is_refused_as_in_a_config_file(
        self, tmp_path, capsys, flag, value, setting
    ):
        # flags reach RunConfig as typed and meet the config file's checks;
        # an infinite grid end is refused before numpy spaces the grid
        assert main(["sweep", flag, value, "--out", str(tmp_path / "u")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: {setting} ")
        assert not (tmp_path / "u").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_span_count_is_refused_before_the_grid_is_spaced(
        self, tmp_path, capsys, monkeypatch, via
    ):
        # 1e11 aspects would ask numpy for 745 GiB before the usage check
        spec = "1e1:1e3:100000000000"

        def unreachable(*args, **kwargs):
            raise AssertionError("the grid was spaced")

        monkeypatch.setattr(cli.np, "linspace", unreachable)
        if via == "flag":
            args = ["--k-grid", spec]
        else:
            cfg = tmp_path / "grid.json"
            cfg.write_text(json.dumps({"k_grid": spec}))
            args = ["--config", str(cfg)]
        assert main(["sweep", *args, "--out", str(tmp_path / "u")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error: k_grid ")
        assert f"count <= {cli.MAX_SPAN_COUNT}" in err[0]
        assert not (tmp_path / "u").exists()

    def test_span_count_limit_is_inclusive(self):
        top = f"1e1:1e3:{cli.MAX_SPAN_COUNT}"
        assert len(make_config("sweep", k_grid=top).k_grid) == cli.MAX_SPAN_COUNT
        with pytest.raises(UsageError, match="^k_grid "):
            make_config("sweep", k_grid=f"1e1:1e3:{cli.MAX_SPAN_COUNT + 1}")

    def test_unknown_flag_is_two(self, tmp_path):
        assert main(["solve", "--k", "2", "--frobnicate"]) == 2

    def test_check_failure_is_one(self, tmp_path):
        # short grid stops well above the acceptance threshold
        code = main(
            ["hausdorff", "--k-grid", "1e2:1e3:2", "--density", "60",
             "--out", str(tmp_path / "h")]
        )
        assert code == 1
        report = json.loads((tmp_path / "h" / "report.json").read_text())
        assert report["status"] == "fail"
        assert report["results"]["verdict"] == "fail"

    def test_shallow_cutoff_makes_the_hausdorff_step_inconclusive(self, tmp_path):
        # at --theta-max 3 the spiral cutoff moves the last distance by
        # more than a fifth of it while every curve completes; the step
        # status follows the check's verdict, and the run still fails
        code = main(
            ["hausdorff", "--theta-max", "3", "--density", "60", "--out", str(tmp_path / "h")]
        )
        assert code == 1
        report = json.loads((tmp_path / "h" / "report.json").read_text())
        step = report["steps"][-1]
        assert step["name"] == "hausdorff-convergence"
        assert "incomplete" not in step["detail"]
        assert step["status"] == step["detail"]["verdict"] == "inconclusive"
        assert report["results"]["verdict"] == "inconclusive"
        assert report["status"] == "fail"

    def test_fit_without_a_limit_fails_every_hausdorff_step(self, tmp_path, monkeypatch):
        # a fit with tau <= 0 has no limit map: each criterion fails and
        # names it, and the report still lands on disk
        fit = cli.extract_limit
        monkeypatch.setattr(
            cli, "extract_limit", lambda sols: dataclasses.replace(fit(sols), tau=-fit(sols).tau)
        )
        code = main(
            ["hausdorff", "--k-grid", "1e2:1e3:2", "--density", "60",
             "--out", str(tmp_path / "h")]
        )
        assert code == 1
        report = json.loads((tmp_path / "h" / "report.json").read_text())
        assert [(s["name"], s["status"]) for s in report["steps"]] == [
            ("limit-data", "fail"),
            ("connection-convergence", "fail"),
            ("hausdorff-convergence", "fail"),
        ]
        assert report["steps"][-1]["detail"]["reason"].startswith("no limit map for the fit")
        # each failing step lists its violated clauses, the missing limit among them
        for step in report["steps"]:
            assert any(
                p.startswith("no limit map for the fit") for p in step["detail"]["problems"]
            )

    def test_numerical_failure_is_three(self, tmp_path):
        code = main(
            ["render", "--k", "1.000000000001", "--format", "txt", "--density", "30",
             "--out", str(tmp_path / "n")]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["sweep", "limit"])
    def test_fit_without_a_limit_map_is_three(self, tmp_path, capsys, monkeypatch, command):
        # a fit with tau <= 0 has nothing to draw or to take a monodromy
        # of: the fit is reported, then the run gives up numerically
        fit = cli.extract_limit
        monkeypatch.setattr(
            cli, "extract_limit", lambda sols: dataclasses.replace(fit(sols), tau=-fit(sols).tau)
        )
        code = main([command, "--k-grid", "1e1:1e3:3", "--out", str(tmp_path / "n")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {command}: ArithmeticError: no limit map for the fit")
        report = json.loads((tmp_path / "n" / "report.json").read_text())
        assert [s["name"] for s in report["steps"]][-2:] == ["extrapolate", "numerical-failure"]

    def test_a_bug_in_a_check_propagates(self, tmp_path, monkeypatch):
        # only an ArithmeticError is a numerical give-up; a fault of a
        # check's scenario table is a bug and keeps its traceback
        def broken():
            raise ValueError("identical limit points cannot be separated")

        monkeypatch.setattr(checks, "separation_scenarios", broken)
        with pytest.raises(ValueError, match="identical limit points"):
            run(make_config("verify", k="2", density=30, out=str(tmp_path / "v")))

    def test_hausdorff_sweep_keeps_the_tolerance_refusal(self, tmp_path, capsys):
        # a residual tolerance that does not exceed the quadrature
        # tolerance is refused as usage before any stage runs, as for
        # solve and sweep
        code = main(
            ["hausdorff", "--tol-solver", "1e-12", "--tol-quad", "1e-12",
             "--out", str(tmp_path / "h")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["usage error: tol_solver 1e-12 must be above tol_quad 1e-12"]
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize("tol", ["1e-6", "1e-8"])
    def test_verify_refuses_a_tolerance_its_certificate_cannot_bound(self, tmp_path, capsys, tol):
        # solver-residuals bounds residuals and gaps by a fixed 1e-8, so a
        # solve that may stop at or above it would fail by construction
        code = main(
            ["verify", "--tol-solver", tol, "--tol-quad", "1e-12", "--out", str(tmp_path / "v")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"usage error: tol_solver {float(tol)!r} must be below verify's residual bound 1e-08"]
        assert not (tmp_path / "v").exists()
        # other commands have no residual certificate and keep the setting
        assert make_config("solve", k="2", tol_solver=tol).tol_solver == float(tol)

    # at K = 3 the computed corner fixed points are off by 1.1e-16, so the
    # holonomy check must bound the error rather than demand equality
    @pytest.mark.parametrize("k", ["2", "3"])
    def test_verify_prints_one_line_per_check(self, tmp_path, capsys, k):
        code = main(["verify", "--k", k, "--density", "50", "--out", str(tmp_path / "v")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        checks = [ln for ln in lines if ln.startswith("PASS ") and "report" not in ln]
        assert len(checks) == 7
        assert "PASS square-identity" in checks

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "affsurf", "solve", "--k", "1",
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "PASS solve" in proc.stdout


# K - 1 from 1e-1 down to 1e-12, K from 10 up to 1e16 by decades, and four
# aspects far past that, where the corner approaches run the most stages
WALKED = [1.0 + 10.0**-j for j in range(1, 13)] + [10.0**j for j in range(1, 17)] + [1e20, 1e30, 1e100, 1e300]


class TestAspectRange:
    def test_every_aspect_completes_in_bounded_work_or_fails_by_type(self, tmp_path, monkeypatch):
        # the derivative nodes of one low-density render, the solve
        # included, stay bounded across the whole aspect range (at most
        # 117,690, at 1e300); 1 + 1e-12 gives up, naming the limit it
        # meets, and 1e30 where the upper axis crossing's bracket shows no
        # sign change
        nodes = []
        derivative = DevelopingMap.derivative

        def counted(self, w):
            nodes.append(np.size(w))
            return derivative(self, w)

        monkeypatch.setattr(DevelopingMap, "derivative", counted)
        statuses = {}
        for K in WALKED:
            nodes.clear()
            report = run(make_config(
                "render", k=repr(K), format="txt", density=30, out=str(tmp_path / "w")
            ))
            statuses[K] = report.status
            assert sum(nodes) < 200_000, K
            if report.status == "error":
                assert report.steps[-1]["detail"]["message"].startswith("ArithmeticError: ")
        assert statuses == {K: "error" if K in (1.0 + 1e-12, 1e30) else "pass" for K in WALKED}


class TestArtifacts:
    def test_square_figure_structure(self, tmp_path):
        run(make_config("render", k="1", density=40, out=str(tmp_path / "r")))
        doc = (tmp_path / "r" / "figure.svg").read_text()
        assert doc.count("<path") == 8
        assert doc.count("<circle") == 4
        assert "viewBox=" in doc

    def test_corner_approaches_name_their_corner(self, tmp_path):
        # one path per side and the corner of surface.CORNER_COORD it runs into
        run(make_config("render", k="2", density=40, out=str(tmp_path / "r")))
        ids = re.findall(r'<path id="([^"]*)"', (tmp_path / "r" / "figure.svg").read_text())
        assert sorted(ids) == [
            "k2-bottom_to_bl", "k2-bottom_to_br", "k2-left_to_bl", "k2-left_to_ul",
            "k2-right_to_br", "k2-right_to_ur", "k2-top_to_ul", "k2-top_to_ur",
        ]

    def test_cloud_files_round_trip(self, tmp_path):
        run(make_config("render", k="1", density=40, format="txt", out=str(tmp_path / "c")))
        cloud = read_points(tmp_path / "c" / "cloud_k1.txt")
        assert cloud.k == 1.0
        assert cloud.source == "rectangle-boundary"
        assert cloud.density == 40.0
        # identity member: everything on the unit square boundary
        dev = abs(
            (abs(cloud.points.real) >= abs(cloud.points.imag)) * abs(cloud.points.real)
            + (abs(cloud.points.real) < abs(cloud.points.imag)) * abs(cloud.points.imag)
            - 1.0
        ).max()
        assert dev < 1e-9

    def test_render_and_limit_write_one_limit_file(self, tmp_path):
        # both commands draw the limit through one path, header included
        flags = ["--density", "40", "--format", "txt"]
        assert main(["render", "--k", "inf", *flags, "--out", str(tmp_path / "r")]) == 0
        assert main(["limit", *flags, "--out", str(tmp_path / "l")]) == 0
        drawn = (tmp_path / "r" / "cloud_kinf.txt").read_bytes()
        assert drawn == (tmp_path / "l" / "limit.txt").read_bytes()
        assert read_points(tmp_path / "l" / "limit.txt").source == "limit-boundary"

    def test_config_file_layer(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"k": [5], "density": 40, "seed": 11}))
        out = tmp_path / "cf"
        assert main(["solve", "--config", str(cfg), "--k", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # flag beats file, file beats default
        assert report["config"]["k"] == ["1"]
        assert report["config"]["density"] == 40.0
        assert report["config"]["seed"] == 11


@pytest.fixture
def stalled_tracks(monkeypatch):
    """Every boundary track runs to its end and then reports a stall.

    track_level_curve (the limit cloud's bridges) looks the track generator
    up by name in tracking; the lock-step corner approaches, mouth curves
    and spiral rays look it up in limitset.
    """
    track = tracking.level_curve_track

    def stalled(*args, **kwargs):
        result = yield from track(*args, **kwargs)
        return dataclasses.replace(result, status="stalled", reason="forced stall")

    monkeypatch.setattr(tracking, "level_curve_track", stalled)
    monkeypatch.setattr(limitset, "level_curve_track", stalled)


class TestIncompleteCurves:
    """A curve that stopped short makes its step inconclusive, never a pass."""

    def _report(self, path):
        return json.loads((path / "report.json").read_text())

    def test_render_step_is_inconclusive(self, tmp_path, stalled_tracks, capsys):
        assert main(["render", "--k", "2", "--density", "40", "--out", str(tmp_path / "r")]) == 1
        report = self._report(tmp_path / "r")
        assert report["status"] == "fail"
        (step,) = report["steps"]
        assert (step["name"], step["status"]) == ("boundary k=2", "inconclusive")
        incomplete = step["detail"]["incomplete"]
        assert len(incomplete) == 8
        assert set(incomplete.values()) == {"partial: forced stall"}
        assert "INCONCLUSIVE render: boundary k=2" in capsys.readouterr().out

    def test_limit_adds_a_flagged_step(self, tmp_path, stalled_tracks):
        assert main(["limit", "--density", "40", "--out", str(tmp_path / "l")]) == 1
        step = self._report(tmp_path / "l")["steps"][-1]
        assert (step["name"], step["status"]) == ("boundary k=inf", "inconclusive")
        incomplete = step["detail"]["incomplete"]
        assert incomplete["mouth_right_upper"] == "partial: forced stall"
        assert incomplete["seam_ul"] == "unreached: bridge forced stall"

    def test_hausdorff_verdict_is_inconclusive(self, tmp_path, stalled_tracks):
        code = main(
            ["hausdorff", "--k-grid", "1e2:1e3:2", "--density", "60",
             "--out", str(tmp_path / "h")]
        )
        assert code == 1
        report = self._report(tmp_path / "h")
        assert report["results"]["verdict"] == "inconclusive"
        step = report["steps"][-1]
        assert step["status"] == "inconclusive"
        assert set(step["detail"]["incomplete"]) == {"limit", "K=100", "K=1000", "limit_alt"}

    def test_verify_flags_the_checks_that_measure_boundaries(
        self, tmp_path, stalled_tracks, capsys
    ):
        assert main(["verify", "--k", "2", "--density", "50", "--out", str(tmp_path / "v")]) == 1
        steps = {s["name"]: s for s in self._report(tmp_path / "v")["steps"]}
        flagged = {"square-identity": "k=1", "reflection-symmetry": "k=2"}
        for name, step in steps.items():
            if name in flagged:
                assert step["status"] == "inconclusive"
                assert set(step["detail"]["incomplete"]) == {flagged[name]}
            else:
                assert step["status"] == "ok"
                assert "incomplete" not in step.get("detail", {})
        out = capsys.readouterr().out.splitlines()
        assert "INCONCLUSIVE square-identity" in out
        assert "INCONCLUSIVE verify: square-identity" in out
