"""Prevertex solve, sweeps, and limit extraction.

Reference values below were frozen from an independent brute-force grid
search (4 rounds of 21x21 refinement on |g(z1)-(1+i)|, final grid pitch
1e-4) and from the first converged sweep, both recorded in the project
notes. The grid oracle resolves the K=2 prevertex to ~5e-7.
"""

import math

import numpy as np
import pytest

import affsurf.solver as solver
from affsurf.develop import DevelopingMap
from affsurf.quadrature import integrate_segment
from affsurf.solver import (
    LimitEstimate,
    SolveResult,
    continuation_sweep,
    corner_residual,
    extract_limit,
    solve_prevertex,
)
from affsurf.surface import hole_monodromy

# grid-search oracle, aspect 2
ORACLE_Z1_K2 = 1.2480750 + 0.7676440j
# frozen from the first converged solves (Newton residuals < 1e-12)
Z1_K2 = 1.248075111571 + 0.767644410562j
Z1_K5 = 1.514013550379 + 0.541678941556j
Z1_K1000 = 1.883446848935 + 0.157918326981j
# a converged solve at K=1e6, for quadrature checks only
Z1_K1E6 = 1.906663602817 + 0.078963146880j
# frozen limit extraction from the 10^1..10^8 sweep
X0_LIMIT = 1.9132015196
TAU_LIMIT = 0.3470332389


class TestSolve:
    def test_square_is_exact(self):
        # the square start is the answer: one residual, no iteration
        r = solve_prevertex(1.0)
        assert r.prevertex == 1 + 1j
        assert r.residual < 1e-10
        assert (r.iterations, r.evaluations) == (0, 1)

    def test_aspect_two_matches_grid_oracle(self):
        r = solve_prevertex(2.0)
        assert abs(r.prevertex - ORACLE_Z1_K2) < 1e-6
        assert abs(r.prevertex - Z1_K2) < 1e-9
        assert r.residual < 1e-10
        assert r.prevertex.real > 0 and r.prevertex.imag > 0

    def test_frozen_values(self):
        assert abs(solve_prevertex(5.0).prevertex - Z1_K5) < 1e-9
        assert abs(solve_prevertex(1000.0).prevertex - Z1_K1000) < 1e-9

    def test_residual_definition(self):
        # at the solution the corner condition holds by construction
        assert abs(corner_residual(2.0, Z1_K2)) < 1e-9

    @pytest.mark.parametrize(
        "K, z1", [(2.0, Z1_K2), (5.0, Z1_K5), (1e3, Z1_K1000), (1e6, Z1_K1E6)]
    )
    def test_graded_ray_matches_plain_bisection(self, K, z1):
        # reference: the same ray by plain bisection at a tenfold stricter
        # tolerance, without break points
        dev = DevelopingMap.from_aspect(K, z1)
        anchor = complex(z1.real, dev.tail_radius)
        end = z1 + 1e-12j * (1.0 + abs(z1))
        ray = integrate_segment(dev.derivative, anchor, end, 1e-13)
        reference = anchor + dev.tail_integral(anchor) + ray - (1 + 1j)
        assert abs(corner_residual(K, z1) - reference) < 1e-12

    @pytest.mark.parametrize("K, z1", [(2.0, Z1_K2), (5.0, Z1_K5), (1e3, Z1_K1000)])
    def test_residual_makes_few_derivative_calls(self, K, z1, monkeypatch):
        # one vectorised call per refinement level on a graded first level;
        # per-panel evaluation would take over a hundred calls
        calls = []
        derivative = DevelopingMap.derivative

        def counted(self, w):
            calls.append(np.size(w))
            return derivative(self, w)

        monkeypatch.setattr(DevelopingMap, "derivative", counted)
        corner_residual(K, z1)
        assert 1 <= len(calls) <= 4

    def test_tolerance_must_exceed_quadrature_tolerance(self):
        with pytest.raises(ArithmeticError, match="residual"):
            solve_prevertex(7.0, tol=1e-12, quad_tol=1e-12)

    def test_cold_and_warm_agree(self):
        cold = solve_prevertex(1000.0)
        warm = solve_prevertex(1000.0, initial=cold.prevertex * (1 + 1e-3))
        assert abs(cold.prevertex - warm.prevertex) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_prevertex(0.5)
        with pytest.raises(ValueError):
            solve_prevertex(math.inf)


def _count_calls(monkeypatch, name):
    """Count the calls the solver makes to one of its module functions."""
    calls = [0]
    fn = getattr(solver, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


# both sides of the switch from the square start to the limit start, and
# aspects where only the limit start converges
WALK_ASPECTS = [1 + 1e-12, 1 + 1e-8, 1.0001, 1.01, 1.3, 2.0, 2.2, 3.0] + [
    10.0**j for j in range(1, 12)
]


@pytest.mark.parametrize("K", WALK_ASPECTS)
def test_start_reaches_every_aspect(K, monkeypatch):
    # the square start below aspect 2 and the limit start above it each
    # finish in a few Broyden steps, and land where a solve started from
    # the member at the square root of K lands
    calls = _count_calls(monkeypatch, "corner_residual")
    cold = solve_prevertex(K)
    assert calls[0] <= 12
    warm = solve_prevertex(K, initial=solve_prevertex(math.sqrt(K)).prevertex)
    assert abs(cold.prevertex - warm.prevertex) < 1e-9


class TestResidualBudget:
    # Broyden updates replace the four central-difference probes per step

    def test_decade_sweep(self, monkeypatch):
        calls = _count_calls(monkeypatch, "corner_residual")
        continuation_sweep([10.0**j for j in range(1, 9)])
        assert calls[0] <= 70

    def test_cold_solve(self, monkeypatch):
        calls = _count_calls(monkeypatch, "corner_residual")
        r = solve_prevertex(1000.0)
        assert calls[0] <= 12
        assert abs(r.prevertex - Z1_K1000) < 1e-9

    def test_slow_step_takes_a_fresh_jacobian(self, monkeypatch):
        # a first Jacobian twice the true one halves every step: each is
        # accepted, but leaves |r| above a tenth of its old value, so the
        # next step must take a fresh Jacobian
        calls = [0]
        fd_jacobian = solver._fd_jacobian

        def doubled_once(*args):
            calls[0] += 1
            jac = fd_jacobian(*args)
            return 2.0 * jac if calls[0] == 1 else jac

        monkeypatch.setattr(solver, "_fd_jacobian", doubled_once)
        res = solve_prevertex(5.0)
        assert calls[0] >= 2
        assert abs(res.prevertex - Z1_K5) < 1e-9


class TestSolvedGeometry:
    """Independent consequences of the corner condition."""

    def test_pair_loop_equals_hole_translation(self):
        # the loop around the right prevertex pair must reproduce the
        # deck translation of the hole, here 2i - 2i/K = i
        dev = DevelopingMap.from_aspect(2.0, Z1_K2)
        loop = dev.loop_integral(complex(Z1_K2.real, 0.0), 2.2 * Z1_K2.imag)
        shift = hole_monodromy(2.0, "right").b
        assert abs(loop - shift) < 1e-10

    def test_midline_height(self):
        # between the slits, approached from above, Im g == 1 - 1/K
        dev = DevelopingMap.from_aspect(2.0, Z1_K2)
        g = dev.develop([complex(Z1_K2.real, dev.tail_radius), 0.3 + 8j, 0.3])[-1]
        assert abs(g.imag - 0.5) < 1e-9


class TestSweep:
    def test_short_sweep(self):
        res = continuation_sweep([10.0, 100.0, 1000.0])
        assert [r.K for r in res] == [10.0, 100.0, 1000.0]
        assert all(r.converged for r in res)
        assert all(r.residual < 1e-9 for r in res)
        heights = [r.prevertex.imag for r in res]
        assert heights == sorted(heights, reverse=True)
        assert abs(res[-1].prevertex - Z1_K1000) < 1e-8
        # each solve from its own start is short
        assert all(r.iterations <= 8 for r in res)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            continuation_sweep([0.5, 2.0])


def _synthetic_sweep(x_of_v, t_of_v, ks):
    out = []
    for K in ks:
        L = math.log(K)
        v = 1.0 / L
        z = complex(x_of_v(v), math.pi * t_of_v(v) / L)
        out.append(SolveResult(K, z, 0.0, 0, 0, True))
    return out


class TestExtractLimit:
    def test_polynomial_model_recovered_exactly(self):
        # Neville at order 4 reproduces any model polynomial in 1/log K
        # of degree <= 4 up to rounding
        ks = [10.0**j for j in range(1, 9)]
        sweep = _synthetic_sweep(
            lambda v: 1.9 - 0.8 * v + 0.3 * v**2 - 0.1 * v**3,
            lambda v: 0.35 + 0.2 * v - 0.05 * v**2,
            ks,
        )
        est = extract_limit(sweep)
        assert abs(est.x0 - 1.9) < 1e-12
        assert abs(est.tau - 0.35) < 1e-12
        assert est.points_used == 8

    def test_real_sweep_matches_frozen_limit(self):
        sweep = continuation_sweep([10.0**j for j in range(1, 9)])
        est = extract_limit(sweep)
        assert abs(est.x0 - X0_LIMIT) < 1e-6
        assert abs(est.tau - TAU_LIMIT) < 1e-6
        assert est.x0_stability < 1e-3
        assert est.tau_stability < 1e-3

    def test_stored_limit_start_matches_the_sweep(self):
        # the solver's limit start holds a few digits of the frozen fit,
        # which the test above ties to the sweep
        x0, tau = solver._LIMIT_START
        assert abs(x0 - X0_LIMIT) < 1e-3
        assert abs(tau - TAU_LIMIT) < 1e-3

    def test_needs_three_points(self):
        sweep = _synthetic_sweep(lambda v: 1.9, lambda v: 0.35, [10.0, 100.0])
        with pytest.raises(ValueError):
            extract_limit(sweep)


class TestLimitConsistency:
    def test_monodromy_residue_near_two(self):
        # around a merged pole the developing map picks up 2*pi*i times
        # the residue; on the limit surface that must be the glued-edge
        # translation, magnitude 2
        dev = DevelopingMap.merged_limit(X0_LIMIT, TAU_LIMIT)
        m = dev.additive_monodromy_series(X0_LIMIT)
        assert abs(m - 1.9993788816j) < 1e-8
        assert abs(abs(m) - 2.0) < 0.1

    def test_connection_gap_decays(self):
        sweep = continuation_sweep([1e2, 1e4, 1e6])
        lim = DevelopingMap.merged_limit(X0_LIMIT, TAU_LIMIT)
        samples = np.linspace(-2j, 2j, 201)
        ref = lim.connection(samples)
        sups = [
            np.max(np.abs(DevelopingMap.from_aspect(r.K, r.prevertex).connection(samples) - ref))
            for r in sweep
        ]
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.1 * sups[0]
