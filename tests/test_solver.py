"""Prevertex solve, sweeps, and limit extraction.

Reference values below were frozen from an independent brute-force grid
search (4 rounds of 21x21 refinement on |g(z1)-(1+i)|, final grid pitch
1e-4) and from the first converged sweep, both recorded in the project
notes. The grid oracle resolves the K=2 prevertex to ~5e-7.
"""

import dataclasses
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
    def test_graded_ray_matches_plain_bisection(self, K, z1, monkeypatch):
        # the ray's head on its graded first level against the same
        # segment by plain bisection at a tenfold stricter tolerance,
        # without break points
        heads = []

        def recorded(f, a, b, tol, **kwargs):
            heads.append((f, a, b, integrate_segment(f, a, b, tol, **kwargs)))
            return heads[-1][-1]

        monkeypatch.setattr(solver, "integrate_segment", recorded)
        corner_residual(K, z1)
        (f, a, b, head), = heads
        assert abs(head - integrate_segment(f, a, b, 1e-13)) < 1e-12

    @pytest.mark.parametrize("K, z1", [(2.0, Z1_K2), (5.0, Z1_K5), (1e3, Z1_K1000)])
    def test_residual_makes_few_derivative_calls(self, K, z1, monkeypatch):
        # the head's graded first level is accepted, and the end takes no
        # derivative at all; per-panel evaluation would take over a
        # hundred calls
        calls = []
        derivative = DevelopingMap.derivative

        def counted(self, w):
            calls.append(np.size(w))
            return derivative(self, w)

        monkeypatch.setattr(DevelopingMap, "derivative", counted)
        corner_residual(K, z1)
        assert 1 <= len(calls) <= 2

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


# from near the square to the far end, where the ray's end shrinks with
# |beta| (at 1e300, |beta| = 110)
ORACLE_ASPECTS = [1 + 1e-8, 2.0, 1e3, 1e6, 1e11, 1e30, 1e300]


def _oracle_residual(mp, K, z1):
    """g(z1) - (1+i) with an end independent of the series.

    The head down to z1 + ic, c = min(Re z1, Im z1)/(2 max(1, |beta|)), by
    integrate_segment at 1e-14, and the end, -i times the integral of
    t^(-beta) H(t) over [0, c], by mpmath.quad after t = e^(-s), on
    intervals of two turns of the phase b*s each.
    """
    dev = DevelopingMap.from_aspect(K, z1)
    c = 0.5 * min(z1.real, z1.imag) / max(1.0, abs(dev.beta))
    anchor = complex(z1.real, dev.tail_radius)
    head = integrate_segment(dev.derivative, anchor, z1 + 1j * c, 1e-14)
    with mp.workdps(20):
        x, y = mp.mpf(z1.real), mp.mpf(z1.imag)
        beta = mp.log(mp.mpf(K)) / (2j * mp.pi)

        def integrand(s):
            t = mp.exp(-s)
            logs = mp.log(2 * y + t) + mp.log(2 * x + 1j * t) - mp.log(2 * mp.mpc(x, y) + 1j * t)
            h = mp.exp(beta * logs)
            return mp.exp(-s * (1 - beta)) * h

        # past s = 40 the end adds at most e^-40 e^(pi/2), below 1e-16
        s0, s1 = -mp.log(c), 40
        n = int(math.ceil((s1 - s0) * max(1.0, dev._b) / (4 * math.pi)))
        end = mp.quad(integrand, mp.linspace(s0, s1, n + 1), method="gauss-legendre")
        end += mp.quad(integrand, [s1, mp.inf])
    return anchor + dev.tail_integral(anchor) + head - 1j * complex(end) - (1 + 1j)


class TestResidualOracle:
    @pytest.mark.parametrize("K", ORACLE_ASPECTS, ids=lambda K: f"K{K:g}")
    def test_residual_matches_oracle(self, K):
        # the closed-form end against mpmath (measured at most 1.5e-14), at
        # the start each solve takes, which lies near the solution
        mp = pytest.importorskip("mpmath")
        z1 = solver._start(K)
        assert abs(corner_residual(K, z1) - _oracle_residual(mp, K, z1)) < 1e-13

    @pytest.mark.parametrize("K", ORACLE_ASPECTS, ids=lambda K: f"K{K:g}")
    def test_ray_factor_takes_the_principal_branch(self, K):
        # t^(-beta) H(t) is the principal g' along the ray, from the end's
        # radius r down to the pole clearance and up to the tail radius
        z1 = solver._start(K)
        dev = DevelopingMap.from_aspect(K, z1)
        r = 0.5 * min(z1.real, z1.imag) / max(1.0, abs(dev.beta))
        w = z1 + 1j * np.geomspace(1e-12, dev.tail_radius - z1.imag, 60)
        # the distance of each w as rounded, which the kernel sees
        t = (w - z1).imag
        split = np.exp(-dev.beta * np.log(t)) * solver._ray_factor(z1, dev._b, t.astype(complex))
        # both sides round the phase b*ln(t), up to 3,000 radians at 1e300
        floor = 10 * 2.0**-52 * dev._b * np.abs(np.log(t))
        assert (np.abs(split / dev.derivative(w) - 1) < np.maximum(1e-13, floor)).all()
        assert t[0] < r < t[-1]

    def test_end_series_needs_the_beta_scaled_radius(self):
        # at K = 1e300 the solve lands in the open quadrant with a small
        # residual; a plain r = rho/4 there puts |H| up to K^(1/4) on the
        # sampling circle, where the scaled radius keeps it below e^(pi/2)
        res = solve_prevertex(1e300)
        assert res.prevertex.real > 0 and res.prevertex.imag > 0
        assert res.residual < 1e-10
        z1 = res.prevertex
        dev = DevelopingMap.from_aspect(1e300, z1)
        rho = 2.0 * min(z1.real, z1.imag)
        scaled, plain = (
            np.abs(solver._ray_factor(z1, dev._b, 2.0 * r * solver._END_CIRCLE)).max()
            for r in (rho / (4.0 * abs(dev.beta)), rho / 4.0)
        )
        assert scaled <= math.exp(math.pi / 2)
        assert plain > 1e6


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


def _bits(v: complex) -> tuple:
    return v.real.hex(), v.imag.hex()


class TestMember:
    """A solve or a fit hands over its family member, built once."""

    POINTS = (0.3 + 0.7j, -2.0 + 0.1j, 5.0 - 3.0j, 40.0j)

    def test_solve_member_is_its_aspect_map(self):
        sol = solve_prevertex(2.0)
        assert sol.member is sol.member
        ref = DevelopingMap.from_aspect(sol.K, sol.prevertex)
        for w in self.POINTS:
            assert _bits(sol.member.derivative(w)) == _bits(ref.derivative(w))
            assert _bits(sol.member.connection(w)) == _bits(ref.connection(w))

    def test_replaced_prevertex_gets_a_new_member(self):
        sol = SolveResult(2.0, Z1_K2, 0.0, 0, 0, True)
        moved = dataclasses.replace(sol, prevertex=sol.prevertex + 0.01)
        assert moved.member is not sol.member
        assert moved.member.poles[0] == moved.prevertex
        assert sol.member.poles[0] == sol.prevertex

    def test_fit_member_is_the_limit_map(self):
        fit = LimitEstimate(X0_LIMIT, TAU_LIMIT, 0.0, 0.0, 8)
        assert fit.member is fit.member
        assert fit.member.kind == "limit"
        assert (fit.member.x0, fit.member.tau) == (X0_LIMIT, TAU_LIMIT)


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
            np.max(np.abs(r.member.connection(samples) - ref))
            for r in sweep
        ]
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.1 * sups[0]
