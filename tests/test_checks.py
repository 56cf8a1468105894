"""Each certificate of `affsurf verify` and `affsurf hausdorff` rejects an
input that breaks it.

Every test runs one check on a sound input, which must pass, and on the
same input with one clause broken, which must fail with a problem naming
that clause.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from affsurf import checks
from affsurf.cli import main
from affsurf.embedding import (
    VirtualPointRep,
    edge_strip_chart,
    half_strip_chart,
    spiral_ball_chart,
)
from affsurf.solver import (
    LimitEstimate,
    SolveResult,
    continuation_sweep,
    extract_limit,
    solve_prevertex,
)

# the unit square boundary, exactly symmetric under both reflections
_SIDE = np.linspace(-1.0, 1.0, 41)
SQUARE = np.concatenate([_SIDE + 1j, _SIDE - 1j, 1 + 1j * _SIDE, -1 + 1j * _SIDE])


@pytest.fixture(scope="module")
def sol2():
    return solve_prevertex(2.0)


@pytest.fixture(scope="module")
def decades():
    """The sweep 1e1..1e8 and its limit fit."""
    sweep = continuation_sweep([10.0**j for j in range(1, 9)])
    return sweep, extract_limit(sweep)


def test_square_identity_needs_the_square_prevertex():
    sol = SolveResult(1.0, 1 + 1j, 0.0, 0, 1, True)
    assert checks.square_identity(sol, SQUARE)[0] == []
    # at K = 1 the connection vanishes at any prevertex, so only the
    # prevertex clause reads the moved solve
    off = dataclasses.replace(sol, prevertex=1 + 1.001j)
    problems, _ = checks.square_identity(off, SQUARE)
    assert len(problems) == 1 and problems[0].startswith("prevertex")


def test_solver_residuals_needs_converged_solves(sol2):
    warm = {2.0: solve_prevertex(2.0, initial=solve_prevertex(math.sqrt(2.0)).prevertex)}
    assert checks.solver_residuals({2.0: sol2}, warm)[0] == []
    loose = dataclasses.replace(sol2, residual=1e-7)
    problems, _ = checks.solver_residuals({2.0: loose}, warm)
    assert problems == [f"k=2 residuals 1.00e-07/{warm[2.0].residual:.2e}"]


def test_corner_holonomy_fixed_point_bound():
    # near K = 1 the fixed point b / (1 - a) is ill-conditioned
    assert checks.corner_holonomy((2.0,))[0] == []
    problems, detail = checks.corner_holonomy((1.0 + 1e-12,))
    assert problems and all("fixed point off by" in p for p in problems)
    assert detail["worst_fixed_point_error"] >= 1e-12


def test_hole_loop_translation_needs_the_solved_prevertex(sol2):
    assert checks.hole_loop_translation((sol2,), tol=1e-11)[0] == []
    off = dataclasses.replace(sol2, prevertex=sol2.prevertex + 0.01)
    problems, _ = checks.hole_loop_translation((off,), tol=1e-11)
    assert len(problems) == 1 and problems[0].startswith("k=2 loop vs translation")


def test_reflection_symmetry_catches_a_shifted_cloud(sol2):
    dev = sol2.member
    xs = np.linspace(-6.0, 6.0, 64)
    assert checks.reflection_symmetry({"square": SQUARE}, [("k=2", dev, xs)])[0] == []
    # a real shift keeps z -> conj z and breaks z -> -conj z
    problems, _ = checks.reflection_symmetry({"shifted": SQUARE + 1e-3}, [("k=2", dev, xs)])
    assert problems == ["shifted -conj asymmetry 2.00e-03"]


def test_chart_transitions_needs_the_final_sup_under_tol():
    name, cha, chb, compact, _ = checks.TRANSITION_PAIRS[2]
    assert checks.chart_transitions()[0] == []
    problems, _ = checks.chart_transitions(((name, cha, chb, compact, 1e-9),))
    assert problems == [f"{name} verdict fail"]


def test_chart_transitions_name_a_pair_without_overlap():
    ball = spiral_ball_chart("ul", 2.5j * math.pi, 0.3)
    pair = ("strip-vs-ball", edge_strip_chart(), ball, (0.3 + 1.5j, -0.2 + 2j), 1e-9)
    problems, detail = checks.chart_transitions((pair,))
    assert problems == ["strip-vs-ball: charts do not overlap on the samples"]
    assert detail["strip-vs-ball"]["verdict"] == "empty"


def test_separation_scenarios_catch_overlapping_disks():
    assert checks.separation_scenarios()[0] == []
    near = (
        "near-strip-points",
        VirtualPointRep(1.0 + 0j, half_strip_chart("left")),
        VirtualPointRep(1.5 + 0j, half_strip_chart("left")),
        0.4,
        0.4,
    )
    problems, detail = checks.separation_scenarios((near,))
    assert len(problems) == 1 and problems[0].startswith("near-strip-points:")
    assert "overlapping" in problems[0]
    assert set(detail["near-strip-points"]) == {"10", "100", "1000", "10000"}


def test_limit_data_needs_merging_prevertices_and_a_stable_fit(decades):
    sweep, fit = decades
    assert checks.limit_data(sweep, fit)[0] == []
    stalled = list(sweep)
    stalled[4] = dataclasses.replace(sweep[4], prevertex=sweep[3].prevertex)
    assert checks.limit_data(stalled, fit)[0] == ["Im z1 not decreasing along the sweep"]
    drifting = dataclasses.replace(fit, x0_stability=2e-3)
    assert checks.limit_data(sweep, drifting)[0] == ["x0 drift 2.00e-03 under grid thinning"]
    strong = dataclasses.replace(fit, tau=1.2 * fit.tau)
    problems, detail = checks.limit_data(sweep, strong)
    shift = detail["hole_shift_magnitude"]
    assert problems == [f"hole translation magnitude {shift:.4f} not within 5% of 2"]
    # no limit map exists for tau <= 0, and no fit without one can be made
    with pytest.raises(ArithmeticError, match="^no limit map for the fit"):
        dataclasses.replace(fit, tau=-fit.tau)


def test_connection_convergence_needs_decreasing_gaps_and_the_ratio(decades):
    sweep, fit = decades
    problems, detail = checks.connection_convergence(sweep, fit)
    assert problems == []
    assert list(detail["sups"]) == [checks.k_label(r.K) for r in sweep]
    stalled = list(sweep)
    stalled[4] = dataclasses.replace(sweep[4], prevertex=sweep[3].prevertex)
    problems, _ = checks.connection_convergence(stalled, fit)
    assert len(problems) == 1 and problems[0].startswith("sups not strictly decreasing")
    # an abscissa approaching x0 like 1/log K makes the gap decay like
    # 1/log K too: decreasing, but 1e8 keeps about a quarter of the 1e2 gap
    x0, tau = 0.5, 0.6
    slow = []
    for K in (1e2, 1e4, 1e6, 1e8):
        L = math.log(K)
        slow.append(SolveResult(K, complex(x0 + 0.5 / L, math.pi * tau / L), 0.0, 0, 0, True))
    problems, detail = checks.connection_convergence(slow, LimitEstimate(x0, tau, 0.0, 0.0, 4))
    assert problems == [f"sup at 1e8 is {100 * detail['ratio']:.1f}% of the 1e2 value"]


def _distance_report(dists, sensitivity, incomplete=None):
    """The fields of a convergence_report that criterion 07 reads."""
    ks = [10.0 ** (2 + i) for i in range(len(dists))]
    report = {
        "k_values": ks,
        "rows": [{"K": K, "hausdorff": d, "boundary_points": 100} for K, d in zip(ks, dists)],
        "final_distance": dists[-1],
        "truncation": {"sensitivity": sensitivity},
    }
    if incomplete:
        report["incomplete"] = incomplete
    return report


class TestHausdorffConvergence:
    def test_sound_report_passes(self):
        problems, detail = checks.hausdorff_convergence(_distance_report([0.14, 0.09, 0.04], 1e-3))
        assert problems == []
        assert detail == {
            "verdict": "pass",
            "final_distance": 0.04,
            "threshold": checks.HAUSDORFF_ACCEPT,
            "strictly_decreasing": True,
        }

    def test_distances_must_decrease(self):
        problems, detail = checks.hausdorff_convergence(_distance_report([0.14, 0.15, 0.04], 1e-3))
        assert problems == ["distances not decreasing: ['0.1400', '0.1500', '0.0400']"]
        assert detail["verdict"] == "fail" and not detail["strictly_decreasing"]

    def test_final_distance_must_be_under_the_bar(self):
        problems, detail = checks.hausdorff_convergence(_distance_report([0.14, 0.09, 0.06], 1e-3))
        assert problems == ["final distance 0.0600 above 0.05"]
        assert detail["verdict"] == "fail"

    def test_cutoff_sensitivity_alone_is_inconclusive(self):
        # 0.01 is a quarter of the final distance
        problems, detail = checks.hausdorff_convergence(_distance_report([0.14, 0.09, 0.04], 0.01))
        assert problems == ["truncation sensitivity 1.00e-02 above 20%"]
        assert detail["verdict"] == "inconclusive"

    def test_incomplete_clouds_are_inconclusive(self):
        notes = {"K=1000": {"mouth_left_upper": "partial: stalled"}}
        problems, detail = checks.hausdorff_convergence(
            _distance_report([0.14, 0.09, 0.04], 1e-3, notes)
        )
        assert problems == ["incomplete curves in K=1000"]
        assert detail["verdict"] == "inconclusive"

    def test_cli_step_fails_on_sensitivity_alone(self, tmp_path, monkeypatch):
        # with every curve complete the truncation sensitivity alone makes
        # the verdict inconclusive; the step says so too, and the run fails
        report = _distance_report([0.14, 0.09, 0.04], 0.01)
        monkeypatch.setattr("affsurf.cli.convergence_report", lambda *a, **kw: dict(report))
        assert main(["hausdorff", "--out", str(tmp_path / "h")]) == 1
        written = json.loads((tmp_path / "h" / "report.json").read_text())
        assert written["results"]["verdict"] == "inconclusive"
        steps = [(s["name"], s["status"]) for s in written["steps"]]
        assert steps == [
            ("sweep 8 aspects", "ok"),
            ("extrapolate", "ok"),
            ("limit-data", "ok"),
            ("connection-convergence", "ok"),
            ("hausdorff-convergence", "inconclusive"),
        ]
