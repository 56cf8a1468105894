"""Each certificate of `affsurf verify` rejects an input that breaks it.

Every test runs one check on a sound input, which must pass, and on the
same input with one clause broken, which must fail with a problem naming
that clause.
"""

import dataclasses

import numpy as np
import pytest

from affsurf import checks
from affsurf.develop import DevelopingMap
from affsurf.embedding import VirtualPointRep, half_strip_chart
from affsurf.solver import SolveResult, continuation_sweep, solve_prevertex

# the unit square boundary, exactly symmetric under both reflections
_SIDE = np.linspace(-1.0, 1.0, 41)
SQUARE = np.concatenate([_SIDE + 1j, _SIDE - 1j, 1 + 1j * _SIDE, -1 + 1j * _SIDE])


@pytest.fixture(scope="module")
def sol2():
    return solve_prevertex(2.0)


def test_square_identity_needs_the_square_prevertex():
    sol = SolveResult(1.0, 1 + 1j, 0.0, 0, 1, True)
    dev = DevelopingMap.from_aspect(1.0, 1 + 1j)
    assert checks.square_identity(sol, dev, SQUARE)[0] == []
    off = dataclasses.replace(sol, prevertex=1 + 1.001j)
    problems, _ = checks.square_identity(off, dev, SQUARE)
    assert len(problems) == 1 and problems[0].startswith("prevertex")


def test_solver_residuals_needs_converged_solves(sol2):
    warm = {r.K: r for r in continuation_sweep((2.0,))}
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
    dev = DevelopingMap.from_aspect(2.0, sol2.prevertex)
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
