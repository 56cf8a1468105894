import cmath
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import affsurf.quadrature as quadrature
from affsurf.develop import SERIES_TERMS, DevelopingMap
from affsurf.quadrature import (
    _PAIR_WEIGHTS,
    GK_NODES,
    GK_WEIGHTS,
    QuadratureError,
    integrate_polyline,
    integrate_segment,
)
from affsurf.surface import corner_holonomy


def _reference_segment(f, a, b, tol=1e-11, max_panels=16384, points=()):
    """(integral, levels): integrate_segment as a plain level loop, kept to
    pin its sums bit for bit."""
    a, b = complex(a), complex(b)
    total = abs(b - a)
    if total == 0.0:
        return 0j, 0
    edges = [a] + sorted((complex(p) for p in points), key=lambda p: abs(p - a)) + [b]
    edges = np.array(edges)
    lo, hi = edges[:-1], edges[1:]
    acc = 0j
    splits = 0
    levels = 0
    floor = 1e-4 * tol
    while True:
        levels += 1
        h = 0.5 * (hi - lo)
        hc = h[:, None]
        nodes = (lo + h)[:, None] + hc * GK_NODES
        vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
        sums = (vals @ _PAIR_WEIGHTS) * hc
        err = np.abs(sums[:, 0] - sums[:, 1])
        length = 2.0 * np.abs(h)
        live = (err > np.maximum((tol / total) * length, floor)) & (length > 1e-15 * total)
        live &= err > 50.0 * np.finfo(float).eps * (np.abs(vals) @ GK_WEIGHTS) * np.abs(h)
        if not live.any():
            return complex(acc + sums[:, 0].sum()), levels
        acc += sums[~live, 0].sum()
        lo, hi = lo[live], hi[live]
        splits += lo.size
        if splits > max_panels:
            raise QuadratureError(
                f"no convergence after {max_panels} panel splits "
                f"(err {err[live].max():.2e}, tol {tol:.2e})"
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))


def _counted_segment(f, *args, **kwargs):
    """(integrate_segment's value, number of integrand calls)."""
    calls = []

    def g(x):
        calls.append(x.size)
        return f(x)

    return integrate_segment(g, *args, **kwargs), len(calls)


def _wave(omega):
    return lambda w: np.exp(1j * omega * w)


class TestQuadrature:
    def test_rule_weights_to_full_precision(self):
        # the Kronrod rule integrates x^k exactly up to k = 22 and the
        # embedded Gauss rule up to k = 13, each to a few ulp; weights cut
        # to 15 digits summed to 2 - 6e-15
        gauss = _PAIR_WEIGHTS[:, 1]
        for k in range(0, 23):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert abs(GK_WEIGHTS @ GK_NODES**k - exact) <= 4e-16, k
            if k <= 13:
                assert abs(gauss @ GK_NODES**k - exact) <= 4e-16, k
        x, w = np.polynomial.legendre.leggauss(7)
        assert np.abs(GK_NODES[1::2] - x).max() <= 2.3e-16
        assert np.abs(gauss[1::2] - w).max() <= 4.5e-16

    def test_polynomial_exact_in_one_panel(self):
        val = integrate_segment(lambda w: 3 * w**2 + 2 * w, 1 - 1j, 2 + 1j)
        a, b = 1 - 1j, 2 + 1j
        assert val == pytest.approx((b**3 + b**2) - (a**3 + a**2), abs=1e-13)

    def test_oscillatory_adaptive(self):
        omega = 197.0
        val = integrate_segment(lambda t: np.exp(1j * omega * t), 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx((cmath.exp(1j * omega) - 1) / (1j * omega), abs=1e-11)

    def test_polyline_matches_single_segment(self):
        f = lambda w: np.sin(w)
        direct = integrate_segment(f, 0j, 2 + 2j)
        split = integrate_polyline(f, [0j, 1 + 1j, 2 + 2j])
        assert split == pytest.approx(direct, abs=1e-11)

    def test_budget_exhaustion(self, monkeypatch):
        # integrable singularity squeezed to the endpoint defeats the budget
        monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
        with pytest.raises(QuadratureError):
            integrate_segment(lambda t: np.abs(t - 0.123456) ** -0.99, 0.0, 1.0, tol=1e-14)

    def test_a_tolerance_below_rounding_is_met_at_the_rounding(self):
        # a 0.002-long chord where |f| is 2e5, as near the real axis at
        # K = 1e11: an absolute 1e-14 lies below the rounding of its
        # integral (about 400), and bisection alone splits until the panel
        # budget runs out; the round-off floor accepts the first level
        omega = 50.0
        f = lambda x: 2e5 * np.exp(1j * omega * x)
        got, calls = _counted_segment(f, 0.0, 0.002, 1e-14)
        assert calls == 1
        exact = 2e5 * (cmath.exp(1j * omega * 0.002) - 1) / (1j * omega)
        assert abs(got - exact) <= 1e-12 * abs(exact)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=st.complex_numbers(max_magnitude=2.0),
        b=st.complex_numbers(max_magnitude=2.0),
        c=st.complex_numbers(min_magnitude=0.5, max_magnitude=3.0),
        ts=st.lists(st.floats(0.01, 0.99), max_size=6),
    )
    def test_break_points_leave_the_integral_unchanged(self, a, b, c, ts):
        assume(abs(b - a) >= 1e-3)
        f = lambda w: np.exp(c * w) + w**3
        exact = (b**4 - a**4) / 4 + (cmath.exp(c * b) - cmath.exp(c * a)) / c
        plain = integrate_segment(f, a, b)
        graded = integrate_segment(f, a, b, points=[a + t * (b - a) for t in ts])
        scale = 1.0 + abs(exact)
        assert abs(plain - exact) <= 1e-9 * scale
        assert abs(graded - exact) <= 1e-9 * scale
        assert abs(graded - plain) <= 1e-9 * scale

    # the wave number sets how many levels the refinement takes
    @pytest.mark.parametrize(
        "f, points, levels",
        [
            (_wave(3.0), (), 1),
            (_wave(5.0), (), 2),
            (_wave(8.0), (), 3),
            (_wave(20.0), (), 4),
            (_wave(8.0), (0.7, 0.3), 1),
            (_wave(20.0), (0.7, 0.3), 3),
            (lambda w: np.zeros_like(w), (), 1),
            (lambda w: np.full(w.shape, complex(-0.0, -0.0)), (), 1),
            (lambda w: np.full(w.shape, complex(-0.0, -0.0)), (0.5,), 1),
        ],
    )
    # backwards, a zero integrand's sums carry a negative zero
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0)])
    def test_levels_match_the_reference_loop(self, f, points, levels, a, b):
        want, want_levels = _reference_segment(f, a, b, points=points)
        got, calls = _counted_segment(f, a, b, points=points)
        assert want_levels == levels
        assert calls == levels
        assert _same_bits(got, want)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        ends=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
        heights=st.lists(st.floats(-0.05, 0.05), min_size=2, max_size=2),
        omega=st.floats(0.0, 30.0),
        tol=st.sampled_from([1e-12, 1e-10, 1e-8]),
        ts=st.lists(st.floats(0.01, 0.99), max_size=3),
    )
    def test_bit_identical_to_the_reference_loop(self, ends, heights, omega, tol, ts):
        # small imaginary parts keep the wave's modulus near 1, so the
        # absolute floor of the accept test stays reachable
        a, b = (complex(x, y) for x, y in zip(ends, heights))
        f = _wave(omega)
        points = [a + t * (b - a) for t in ts] if abs(b - a) > 1e-3 else []
        want, levels = _reference_segment(f, a, b, tol, points=points)
        got, calls = _counted_segment(f, a, b, tol, points=points)
        assert calls == levels
        assert _same_bits(got, want)

    @pytest.mark.parametrize("omega, max_panels", [(3.0, 0), (5.0, 0), (20.0, 2), (20.0, 4)])
    def test_panel_budget_matches_the_reference_loop(self, omega, max_panels, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
        try:
            want = _reference_segment(_wave(omega), 0.0, 1.0, max_panels=max_panels)[0]
        except QuadratureError as exc:
            with pytest.raises(QuadratureError, match=re.escape(str(exc))):
                integrate_segment(_wave(omega), 0.0, 1.0)
        else:
            assert _same_bits(integrate_segment(_wave(omega), 0.0, 1.0), want)

    def test_break_points_off_the_segment_are_rejected(self):
        # an end point or nan is not strictly inside either
        for points in ([1.5], [0.5 + 0.5j], [0.5, 1.0], [0.0], [float("nan")], np.array([0.3, -0.2])):
            with pytest.raises(ValueError, match="strictly inside"):
                integrate_segment(np.sin, 0.0, 1.0, points=points)

    def test_slit_crossing_detection(self):
        # slits at Re = +-1, |Im| <= 0.5
        dev = DevelopingMap.from_aspect(2.0, 1 + 0.5j)
        assert dev.slit_crossings(0j, 2 + 0j) == [(0.5, -1)]  # right slit, rightward
        assert dev.slit_crossings(2 + 0j, 0j) == [(0.5, +1)]  # right slit, leftward
        assert dev.slit_crossings(-2 + 0j, 0j) == [(0.5, +1)]  # left slit, rightward
        assert dev.slit_crossings(0j, -2 + 0j) == [(0.5, -1)]  # left slit, leftward
        # both slits, in traversal order either way
        assert dev.slit_crossings(-3 + 0.2j, 3 - 0.2j) == [(1 / 3, +1), (2 / 3, -1)]
        assert dev.slit_crossings(3 + 0.2j, -3 - 0.2j) == [(1 / 3, +1), (2 / 3, -1)]
        assert dev.slit_crossings(1j, 2 + 1j) == []
        # along the cut line but above the slit
        assert dev.slit_crossings(1 + 2j, 1 + 0.6j) == []
        with pytest.raises(ArithmeticError, match="along a branch slit"):
            dev.slit_crossings(1 + 2j, 1 + 0.4j)
        # the members without slits, also on a vertical segment on x = 0
        for member in (DevelopingMap.from_aspect(1.0, 1 + 0.5j), DevelopingMap.merged_limit(1.9, 0.35)):
            for a, b in ((0j, 2 + 0j), (-3 + 0j, 3 + 0j), (-1j, 1j)):
                assert member.slit_crossings(a, b) == []
        # a counterclockwise square around each prevertex, no vertex on a
        # slit: the exponents -1, +1, -1, +1 are those of the corner
        # holonomies' scales 1/K (ur, bl) and K (ul, br)
        square = [0.1 - 0.1j, 0.1 + 0.1j, -0.1 + 0.1j, -0.1 - 0.1j, 0.1 - 0.1j]
        totals = []
        for z, corner in zip(dev.poles, ("ur", "ul", "bl", "br")):
            path = [z + d for d in square]
            totals.append(sum(dm for a, b in zip(path, path[1:]) for _, dm in dev.slit_crossings(a, b)))
            assert dev.K ** totals[-1] == pytest.approx(abs(corner_holonomy(dev.K, corner).a))
        assert totals == [-1, +1, -1, +1]


K2 = DevelopingMap.from_aspect(2.0, 0.8 + 0.55j)


class TestDerivative:
    def test_one_at_infinity(self):
        assert K2.derivative(1e6 + 1e6j) == pytest.approx(1.0, abs=1e-10)

    def test_trivial_aspect(self):
        d = DevelopingMap.from_aspect(1.0, 1 + 1j)
        w = np.array([3 + 0j, 0j, 0.8 + 0.2j])
        assert np.all(d.derivative(w) == 1.0)

    def test_conjugation_symmetries(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=25) * 3 + 1j * (rng.normal(size=25) * 3 + 4)
        vals = K2.derivative(w)
        assert np.allclose(K2.derivative(np.conj(w)), np.conj(vals), rtol=1e-13)
        assert np.allclose(K2.derivative(-np.conj(w)), np.conj(vals), rtol=1e-13)

    def test_continuous_across_cut_line_outside_slit(self):
        x, y = 0.8, 0.55
        eps = 1e-9
        above = K2.derivative(x + 1j * (y + 0.2))
        left = K2.derivative(x - eps + 1j * (y + 0.2))
        right = K2.derivative(x + eps + 1j * (y + 0.2))
        assert left == pytest.approx(right, rel=1e-6)
        assert left == pytest.approx(above, rel=1e-6)

    def test_jump_factor_across_slit(self):
        # crossing the right slit right-to-left divides g' by the aspect,
        # crossing the left slit right-to-left multiplies by it
        eps = 1e-9
        r = K2.derivative(0.8 - eps + 0.2j) / K2.derivative(0.8 + eps + 0.2j)
        assert r == pytest.approx(1 / 2.0, rel=1e-6)
        l = K2.derivative(-0.8 - eps + 0.2j) / K2.derivative(-0.8 + eps + 0.2j)
        assert l == pytest.approx(2.0, rel=1e-6)

    def test_pole_guard(self):
        with pytest.raises(ArithmeticError):
            K2.derivative(0.8 + 0.55j)

    def test_limit_far_from_the_poles_does_not_overflow(self):
        # log g' = 2 tau x0 / ((w - x0)(w + x0)) must not form the product,
        # which overflows where |w| is above about 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert LIMIT.derivative(1e160j) == 1
            far = LIMIT.derivative(np.array([1e200 + 1e200j, 1e160j, -1e300]))
        assert (far == 1).all()

    def test_connection_far_from_the_poles_does_not_overflow(self):
        # |w - z|^2 overflows where |w| is above about 1e154; each term is
        # then 0, in an array, of any shape, as for a single point
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for dev in (K2, LIMIT):
                far = np.array([1e200 + 1e200j, 1e160j, -1e300, 1e160 - 1e300j, 3e250 + 1e160j, -1e160])
                vals = dev.connection(far.reshape(2, 3))
                assert vals.shape == (2, 3) and np.all(vals == 0)
                assert all(_same_bits(dev.connection(complex(w)), v) for w, v in zip(far, vals.ravel()))

    def test_derivative_solves_connection_ode(self):
        # independent route: log g' is a primitive of the connection
        K, z1 = 3.0, 0.75 + 0.4j
        d = DevelopingMap.from_aspect(K, z1)
        w, anchor = -1.5 + 0.8j, -1.5 + 60.8j
        logg = d.log_derivative(anchor) + integrate_segment(d.connection, anchor, w, 1e-13)
        assert cmath.exp(logg) == pytest.approx(d.derivative(w), rel=1e-10)

    def test_minus_one_accuracy_far_out(self):
        w = 1e7 + 3e6j
        exact = K2.log_derivative(w)  # ~ E2/w^2, far below 1
        got = K2.derivative_minus_one(w)
        assert got == pytest.approx(exact, rel=1e-10)
        assert abs(got) < 1e-13


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _ratio_parts(dev: DevelopingMap, w: np.ndarray):
    """u of both Moebius ratios r = 1 + u at each point, as the kernel forms
    them, and the kernel's log g' rebuilt from the parts (x, y) of u by a
    reference rule for ln|1+u|^2 and arg(1+u)."""
    u = dev._numerators / (w[:, None] - dev._pole_array[0::2])

    def assemble(mod2, arg):
        out = np.empty(len(w), dtype=complex)
        out.real = dev._b * (arg[:, 0] + arg[:, 1])
        out.imag = -0.5 * dev._b * (mod2[:, 0] + mod2[:, 1])
        return out

    return u, assemble


# the direct-solve limit parameters
LIMIT = DevelopingMap.merged_limit(1.913348079505, 0.347148385025)
POLE_CASES = [(d, p) for d in (K2, LIMIT) for p in d.poles]
POINTWISE = ("log_derivative", "derivative", "derivative_minus_one", "connection")


class TestPoleGuard:
    @pytest.mark.parametrize("method, rel", [
        ("log_derivative", 1e-13), ("derivative", 1e-13), ("connection", 1e-12),
    ])
    @pytest.mark.parametrize("dev, pole", POLE_CASES, ids=[f"{d.kind}-{p}" for d, p in POLE_CASES])
    def test_clearance_names_the_pole(self, dev, pole, method, rel):
        clearance = rel * (1.0 + max(abs(p) for p in dev.poles))
        # approach toward the origin, where the limit map decays instead of
        # overflowing
        inward = -pole / abs(pole)
        evaluate = getattr(dev, method)
        message = re.escape(f"singular point {pole}")
        with pytest.raises(ArithmeticError, match=message):
            evaluate(pole + 0.5 * clearance * inward)
        with pytest.raises(ArithmeticError, match=message):
            evaluate(np.array([5 + 5j, pole + 0.5 * clearance * inward]))
        assert np.isfinite(evaluate(pole + 2.0 * clearance * inward))
        assert np.all(np.isfinite(evaluate(np.array([5 + 5j, pole + 2.0 * clearance * inward]))))

    def test_first_pole_in_ring_order_is_named(self):
        _, z2, _, z4 = K2.poles
        with pytest.raises(ArithmeticError, match=re.escape(f"singular point {z2}")):
            K2.derivative(np.array([z4, z2]))

    @pytest.mark.parametrize("method", POINTWISE)
    @pytest.mark.parametrize("dev", [K2, LIMIT, DevelopingMap.from_aspect(1.0, 1 + 1j)],
                             ids=["finite", "limit", "trivial"])
    def test_empty_input_gives_empty_output(self, dev, method):
        out = getattr(dev, method)(np.array([], dtype=complex))
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,)


# solved prevertices, and the probes of the mpmath oracle: far field, mid
# field, then 2x the pole clearance inward of each prevertex in ring order
ORACLE_MEMBERS = {
    2.0: 1.2480751115729267 + 0.7676444105598118j,
    1e3: 1.8834468489387146 + 0.1579183269810614j,
    1e6: 1.9066636028168291 + 0.07896314688048475j,
    1e12: 1.9117075815487001 + 0.039472905519489496j,
}
ORACLE_FIELD = (1e4 + 2j, 3e5 - 1e5j, 1e7 + 3e6j, 1.5 + 0.7j, -2 + 3j, 0.3 - 0.4j, 5 + 1e-3j)
# the error of log g' at each probe with numpy's complex log (measured
# against mpmath at 40 digits, rounded up to two digits); at the zeros of
# the ratios, z2 and z4, both kernels lose digits to 1 + u
ORACLE_ERRORS = {
    2.0: (1.4e-18, 2.5e-23, 4.2e-24, 1.8e-17, 9.5e-18, 3.8e-17, 7.2e-18,
          1.5e-16, 6.4e-05, 1.5e-16, 6.4e-05),
    1e3: (2.3e-21, 1.9e-23, 4e-24, 2.5e-17, 1.2e-16, 5.1e-17, 4.8e-17,
          3.5e-15, 4.8e-05, 3.5e-15, 4.8e-05),
    1e6: (6.8e-22, 1.7e-22, 4.4e-24, 3.2e-16, 3.5e-16, 5.6e-17, 6.2e-17,
          7.6e-16, 3.2e-05, 7.6e-16, 3.2e-05),
    1e12: (4.5e-21, 8.2e-23, 1.3e-24, 4e-16, 5.1e-18, 1.2e-16, 4.4e-17,
           7.4e-15, 1.4e-04, 7.4e-15, 1.4e-04),
}


class TestKernelOracle:
    @pytest.mark.parametrize("K", list(ORACLE_MEMBERS), ids=lambda K: f"K{K:g}")
    def test_against_mpmath(self, K):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            self._check(mp, K)

    @staticmethod
    def _check(mp, K):
        dev = DevelopingMap.from_aspect(K, ORACLE_MEMBERS[K])
        clearance = 1e-13 * (1.0 + max(abs(p) for p in dev.poles))
        probes = ORACLE_FIELD + tuple(p - 2.0 * clearance * p / abs(p) for p in dev.poles)
        z1, z2, z3, z4 = (mp.mpc(p.real, p.imag) for p in dev.poles)
        beta = mp.log(mp.mpf(K)) / (2j * mp.pi)
        logs = dev.log_derivative(np.array(probes))
        derivs = dev.derivative(np.array(probes))
        for w, log_g, deriv, today in zip(probes, logs, derivs, ORACLE_ERRORS[K]):
            wm = mp.mpc(w.real, w.imag)
            l1, l2 = mp.log((wm - z4) / (wm - z1)), mp.log((wm - z2) / (wm - z3))
            exact = beta * (l1 + l2)
            # below today's error where that exceeds ten roundings of the
            # two-ratio sum; beneath that floor the error is the luck of
            # the last bits, not the kernel
            floor = 10 * 2.0**-52 * float(abs(beta) * (abs(l1) + abs(l2)))
            bound = max(today, floor)
            err = float(abs(mp.mpc(log_g.real, log_g.imag) - exact))
            assert err <= bound, (w, err, today, floor)
            # g' = exp(log g'): its relative error adds exp's rounding
            g = mp.exp(exact)
            rel = float(abs(mp.mpc(deriv.real, deriv.imag) - g) / abs(g))
            assert rel <= bound + 2.0**-51, (w, rel)


_POINTS = st.lists(
    st.one_of(
        st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(min_magnitude=2e3, max_magnitude=1e8,
                           allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=12,
)


def _assert_series_matches(e, coeffs):
    """Even E_k within 1e-14 relative of the oracle's; odd ones 0 where its are noise."""
    for k in range(2, SERIES_TERMS + 1):
        if k % 2:
            assert e[k] == 0.0 and abs(coeffs[k]) < 1e-30, k
        else:
            assert abs(e[k] - coeffs[k]) <= 1e-14 * abs(coeffs[k]), k


class TestScalarArrayAgreement:
    # an axis seed's slope is a single point and every tracker chord an
    # array of nodes and its end, so a point must develop the same way in
    # both: a chord's end value is then the seed-style value bit for bit

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(ws=_POINTS, dev=st.sampled_from([K2, DevelopingMap.from_aspect(1e3, 1.88 + 0.158j)]))
    def test_finite_scalar_equals_array_element(self, ws, dev):
        assume(all(min(abs(w - p) for p in dev.poles) > 1e-3 for w in ws))
        for method in ("log_derivative", "derivative", "derivative_minus_one", "connection"):
            evaluate = getattr(dev, method)
            batch = evaluate(np.array(ws, dtype=complex))
            for w, v in zip(ws, batch):
                assert _same_bits(evaluate(w), v), (method, w)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(ws=_POINTS)
    def test_limit_scalar_equals_array_element(self, ws):
        assume(all(min(abs(w - p) for p in LIMIT.poles) > 1e-3 for w in ws))
        # the connection runs the same real operations on a point's Python
        # floats as on its array element, so the two round alike
        for method in ("log_derivative", "derivative", "derivative_minus_one", "connection"):
            evaluate = getattr(LIMIT, method)
            batch = evaluate(np.array(ws, dtype=complex))
            for w, v in zip(ws, batch):
                assert _same_bits(evaluate(w), v), (method, w)


class TestSeries:
    # the kernel of log g': one real log and one atan2 per Moebius ratio

    def test_log1p_zero_dim(self):
        # a 0-d point comes back a complex equal to its element in an
        # array; far out both ratios take the small-u log1p, near the poles
        # neither does
        for w in (1e5 + 3e4j, 0.9 + 0.6j):
            for method in ("log_derivative", "derivative", "derivative_minus_one"):
                got = getattr(K2, method)(np.array(w))
                assert type(got) is complex
                assert _same_bits(got, getattr(K2, method)(np.array([w]))[0])

    def test_log1p_all_large_is_plain_log(self):
        # every |u| >= 1e-3: the plain real log of |1+u|^2, and close to
        # numpy's complex log of 1 + u
        w = np.array([2.0 + 1j, -0.3 + 0.2j, 5 - 7j, 0.8 + 0.5j, 40 + 300j])
        u, assemble = _ratio_parts(K2, w)
        assert (np.abs(u) >= 1e-3).all()
        v = 1 + u.real
        plain = assemble(np.log(v * v + u.imag**2), np.arctan2(u.imag, v))
        assert _same_bits(K2.log_derivative(w), plain)
        clog = K2.beta * np.log(1 + u).sum(axis=1)
        assert np.abs(K2.log_derivative(w) - clog).max() <= 8 * np.finfo(float).eps

    def test_log1p_all_small(self):
        # every |u| < 1e-3: ln|1+u|^2 = log1p(x(2 + x) + y^2), where the
        # plain log of |1 + u|^2 keeps only the digits of u above rounding
        # (the far probes of TestKernelOracle measure the accuracy)
        w = np.array([3e3 + 1e3j, -1e4 + 2e5j, 1e12 - 1e11j, 7e15j])
        u, assemble = _ratio_parts(K2, w)
        assert (np.abs(u) < 1e-3).all()
        x, y = u.real, u.imag
        arg = np.arctan2(y, 1 + x)
        small = np.log1p(x * (2 + x) + y * y)
        assert _same_bits(K2.log_derivative(w), assemble(small, arg))
        plain = np.log((1 + x) ** 2 + y * y)
        assert np.abs(plain[2:] / small[2:] - 1).min() > 1e-5

    def test_log1p_empty(self):
        for method in ("log_derivative", "derivative", "derivative_minus_one"):
            assert getattr(K2, method)(np.array([], dtype=complex)).shape == (0,)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        near=st.lists(st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=8),
        far=st.lists(st.complex_numbers(min_magnitude=2e3, max_magnitude=1e8,
                                        allow_nan=False, allow_infinity=False), max_size=4),
    )
    def test_log1p_large_elements_are_plain_log(self, near, far):
        # with or without small-u neighbours in the same array
        assume(all(min(abs(w - p) for p in K2.poles) > 1e-3 for w in near))
        w = np.array(near + far, dtype=complex)
        u, assemble = _ratio_parts(K2, w)
        big = (np.abs(u) >= 1e-3).all(axis=1)
        v = 1 + u.real
        plain = assemble(np.log(v * v + u.imag**2), np.arctan2(u.imag, v))
        assert _same_bits(K2.log_derivative(w)[big], plain[big])

    def test_log1p_small(self):
        # in one array, points whose ratios both have |u| < 1e-3 take
        # log1p and the others the plain log
        w = np.array([1e9 + 1e9j, 2.0 + 1j, 3e3 - 1e3j, -0.3 + 0.2j])
        u, assemble = _ratio_parts(K2, w)
        x, y = u.real, u.imag
        v = 1 + x
        small = np.abs(u) < 1e-3
        assert small.all(axis=1).tolist() == [True, False, True, False]
        assert not (small.any(axis=1) & ~small.all(axis=1)).any()
        mod2 = np.where(small, np.log1p(x * (2 + x) + y * y), np.log(v * v + y * y))
        assert _same_bits(K2.log_derivative(w), assemble(mod2, np.arctan2(y, v)))

    def test_log1p_near_minus_one_stays_finite(self):
        # 2x the pole clearance from z2 and z4, the zeros of the ratios,
        # x(2 + x) cancels and log1p would give -inf
        clearance = 1e-13 * (1.0 + max(abs(p) for p in K2.poles))
        zeros = np.array([p - 2.0 * clearance * p / abs(p) for p in K2.poles[1::2]])
        got = K2.log_derivative(zeros)
        assert np.isfinite(got).all()
        # Im log g' = -(b/2)(ln|r1|^2 + ln|r2|^2), and the vanishing ratio
        # has |r| near clearance / Im z1
        assert (got.imag / K2._b > 25).all()

    def test_coefficients_against_highprec_oracle(self):
        # every even coefficient to 1e-14 relative, and every odd one
        # exactly 0 where the oracle's is 40-digit noise: the prevertices
        # come in opposite pairs, and in the limit so do the singular points
        mp = pytest.importorskip("mpmath")
        K, z1 = 2.0, mp.mpc("0.8", "0.55")
        beta = mp.log(K) / (2j * mp.pi)
        z2, z3, z4 = -mp.conj(z1), -z1, mp.conj(z1)

        def f(u):
            if u == 0:
                return mp.mpc(1)
            return mp.e ** (
                beta * (mp.log((1 - z4 * u) / (1 - z1 * u)) + mp.log((1 - z2 * u) / (1 - z3 * u)))
            )

        with mp.workdps(40):
            coeffs = [complex(c) for c in mp.taylor(f, 0, SERIES_TERMS)]
        e = DevelopingMap.from_aspect(2.0, 0.8 + 0.55j).series_coefficients
        assert len(e) == SERIES_TERMS + 1
        _assert_series_matches(e, coeffs)

    @pytest.mark.parametrize("dev", [K2, LIMIT, DevelopingMap.from_aspect(1e12, 1.91 + 0.0395j)],
                             ids=["finite", "limit", "far"])
    def test_odd_coefficients_vanish(self, dev):
        e = dev.series_coefficients
        assert e[0] == 1.0
        assert all(e[k] == 0.0 for k in range(1, SERIES_TERMS + 1, 2))
        assert all(e[k] != 0.0 for k in range(2, SERIES_TERMS + 1, 2))

    def test_limit_coefficients_against_highprec_oracle(self):
        mp = pytest.importorskip("mpmath")
        x0, tau = mp.mpf("0.5"), mp.mpf("0.6")

        def f(u):
            # g'(1/u) = exp(tau/(1/u - x0) - tau/(1/u + x0))
            return mp.exp(tau * u / (1 - x0 * u) - tau * u / (1 + x0 * u))

        with mp.workdps(40):
            coeffs = [complex(c) for c in mp.taylor(f, 0, SERIES_TERMS)]
        _assert_series_matches(DevelopingMap.merged_limit(0.5, 0.6).series_coefficients, coeffs)

    def test_tail_matches_quadrature(self):
        d = K2
        R = d.tail_radius
        w0 = R * cmath.exp(0.4j)
        far = 40 * R * cmath.exp(0.4j)
        quad = integrate_segment(d.derivative_minus_one, far, w0, 1e-13)
        assert d.tail_integral(w0) - d.tail_integral(far) == pytest.approx(quad, abs=1e-11)

    def test_limit_tail(self):
        d = DevelopingMap.merged_limit(0.5, 0.6)
        R = d.tail_radius
        w0 = R * cmath.exp(2.2j)
        far = 40 * R * cmath.exp(2.2j)
        quad = integrate_segment(d.derivative_minus_one, far, w0, 1e-13)
        assert d.tail_integral(w0) - d.tail_integral(far) == pytest.approx(quad, abs=1e-11)


class TestDevelop:
    def test_identity_at_aspect_one(self):
        d = DevelopingMap.from_aspect(1.0, 1 + 1j)
        path = [30 + 5j, 3 + 1j, -2 - 1j]
        vals = d.develop(path)
        assert np.allclose(vals, path, atol=1e-12)

    def test_normalization_far_field(self):
        w = 200 + 120j
        g = K2.develop_at(w)
        e2 = K2.series_coefficients[2]
        assert g - w == pytest.approx(-e2 / w, rel=1e-3)

    def test_path_independence(self):
        w = -2.0 + 1.5j
        via_a = K2.develop([30j, 3j + 1, w])[-1]
        via_b = K2.develop([-30 + 0.5j, -4 + 2.5j, w])[-1]
        assert via_a == pytest.approx(via_b, abs=1e-10)
        assert K2.develop_at(w) == pytest.approx(via_a, abs=1e-10)

    def test_conjugation_symmetry(self):
        w = 1.4 + 0.9j
        g = K2.develop_at(w)
        assert K2.develop_at(w.conjugate()) == pytest.approx(g.conjugate(), abs=1e-10)
        assert K2.develop_at(-w.conjugate()) == pytest.approx(-g.conjugate(), abs=1e-10)

    def test_real_axis_outside_slits_stays_real(self):
        for x in (2.5, -1.7):
            g = K2.develop([x + 30j, x + 0j])[-1]
            assert abs(g.imag) < 1e-10

    def test_midline_height_constant_between_slits(self):
        # g' is real on the inter-slit segment, so the from-above branch has
        # constant imaginary part there: the image of a horizontal midline.
        # (It equals 1 - 1/K once the prevertex is actually solved.)
        vals = [K2.develop([x + 30j, x + 0j])[-1] for x in (-0.5, 0.0, 0.3, 0.6)]
        ims = [v.imag for v in vals]
        assert max(ims) - min(ims) < 1e-10
        assert ims[0] > 0

    def test_slit_crossing_rejected(self):
        with pytest.raises(ValueError):
            K2.develop([30 + 0.2j, 0.2j])  # straight through the right slit
        with pytest.raises(ArithmeticError, match="along a branch slit"):
            K2.develop([0.8 + 30j, 0.8 + 0.2j])  # down the slit's line onto the slit
        with pytest.raises(ArithmeticError, match="along a branch slit"):
            K2.develop_at(0.8 + 0.2j)  # on the slit: no straight approach
        with pytest.raises(ValueError):
            K2.develop([2 + 0j, 3 + 0j])  # anchor inside the tail radius

    def test_descent_along_cut_line_is_legal(self):
        path = [0.8 + 30j, 0.8 + 1j * (0.55 + 1e-10)]
        vals = K2.develop(path, tol=1e-12)
        assert np.isfinite(vals[-1].real) and np.isfinite(vals[-1].imag)


class TestLoops:
    def test_pair_loops_cancel(self):
        i_r = K2.loop_integral(0.8, 1.0)
        i_l = K2.loop_integral(-0.8, 1.0)
        assert abs(i_r + i_l) < 1e-9

    def test_loop_radius_validation(self):
        with pytest.raises(ValueError):
            K2.loop_integral(0.8, 0.3)  # circle pierces the slit

    def test_square_refuses_no_loop(self):
        # the square has no slits, so a circle through x = +-1 is a loop
        # like any other, and g' = 1 makes its integral vanish
        sq = DevelopingMap.from_aspect(1.0, 1 + 1j)
        assert sq.slits == ()
        assert abs(sq.loop_integral(0.0, 1.0)) < 1e-14

    def test_far_loop_vanishes(self):
        # encloses everything: residues at infinity cancel (E_1 = 0)
        assert abs(K2.loop_integral(0.0, 50.0)) < 1e-9

    def test_limit_monodromy_series_vs_quadrature(self):
        d = DevelopingMap.merged_limit(0.5, 0.55)
        series = d.additive_monodromy_series(0.5)
        quad = d.loop_integral(0.5, 0.45, tol=1e-12)
        assert series == pytest.approx(quad, rel=1e-9)
        # opposite singular point gives the inverse translation
        assert d.additive_monodromy_series(-0.5) == pytest.approx(-series, rel=1e-12)
        # and it is close to the glued-edge deck translation 2i
        assert abs(series.real) < 1e-12
        assert series.imag == pytest.approx(2.0, rel=0.2)
