import cmath
import math
import re

import numpy as np
import pytest

from affsurf import checks
from affsurf.develop import PREVERTEX_SIGNS, DevelopingMap, prevertex_ring
from affsurf.solver import LimitEstimate, SolveResult


def _contour_residue(c, center, radius=0.1, n=256):
    # trapezoid rule on a small circle is spectrally accurate here
    theta = np.arange(n) * 2 * math.pi / n
    ring = center + radius * np.exp(1j * theta)
    dz = 1j * radius * np.exp(1j * theta) * 2 * math.pi / n
    return np.sum(c.connection(ring) * dz) / (2j * math.pi)


def test_prevertex_ring_symmetry():
    z1 = 0.8 + 0.3j
    ring = prevertex_ring(z1)
    assert ring == (z1, -0.8 + 0.3j, -z1, 0.8 - 0.3j)


def test_trivial_at_aspect_one():
    c = DevelopingMap.from_aspect(1.0, 1 + 1j)
    assert c.slits == ()
    grid = np.linspace(-3, 3, 100) + 2j
    assert np.all(c.connection(grid) == 0)


def test_odd_and_conjugation_symmetric():
    c = DevelopingMap.from_aspect(5.0, 0.7 + 0.25j)
    rng = np.random.default_rng(11)
    z = rng.normal(size=40) * 2 + 1j * rng.normal(size=40) * 2 + 3j
    vals = c.connection(z)
    assert np.allclose(c.connection(-z), -vals, atol=1e-14)
    assert np.allclose(c.connection(np.conj(z)), np.conj(vals), atol=1e-14)


def test_real_on_real_axis():
    c = DevelopingMap.from_aspect(7.0, 0.6 + 0.2j)
    x = np.linspace(-4, 4, 101)
    assert np.max(np.abs(c.connection(x).imag)) < 1e-14


def test_residues():
    # u * connection(p + u) -> residue at p as u -> 0
    K = 4.0
    z1 = 0.9 + 0.4j
    c = DevelopingMap.from_aspect(K, z1)
    beta = math.log(K) / (2j * math.pi)
    u = 1e-8
    for sign, p in zip(PREVERTEX_SIGNS, c.poles):
        assert u * c.connection(p + u) == pytest.approx(sign * beta, rel=1e-6)
    assert abs(u * c.connection(5 + 5j + u)) < 1e-8


def test_residue_matches_contour_integral():
    c = DevelopingMap.from_aspect(3.0, 0.8 + 0.35j)
    beta = math.log(3.0) / (2j * math.pi)
    integral = _contour_residue(c, c.poles[0])
    assert integral == pytest.approx(PREVERTEX_SIGNS[0] * beta, abs=1e-12)


def test_pole_evaluation_rejected():
    c = DevelopingMap.from_aspect(2.0, 0.8 + 0.3j)
    with pytest.raises(ArithmeticError):
        c.connection(0.8 + 0.3j)
    # an array is refused at its first point inside the clearance, here
    # the second, naming that point's pole
    with pytest.raises(ArithmeticError, match=re.escape(str(c.poles[1]))):
        c.connection(np.array([5.0, -0.8 + 0.3j, 0.8 - 0.3j]))


def test_limit_shape():
    c = DevelopingMap.merged_limit(0.5, 0.6)
    z = 2 + 1j
    expect = -0.6 / (z - 0.5) ** 2 + 0.6 / (z + 0.5) ** 2
    assert c.connection(z) == pytest.approx(expect)
    # double poles with zero residue; u^2 * connection(p + u) -> coefficient
    assert abs(_contour_residue(c, 0.5)) < 1e-12
    u = 1e-6
    assert (u * u * c.connection(0.5 + u)).real == pytest.approx(-0.6, rel=1e-9)
    assert (u * u * c.connection(-0.5 + u)).real == pytest.approx(0.6, rel=1e-9)


def test_limit_validation():
    with pytest.raises(ValueError):
        DevelopingMap.merged_limit(-0.5, 0.6)
    with pytest.raises(ValueError):
        DevelopingMap.merged_limit(0.5, 0.0)
    with pytest.raises(ValueError):
        DevelopingMap.from_aspect(math.inf, 1 + 1j)
    with pytest.raises(ValueError):
        DevelopingMap.from_aspect(2.0, -1 + 1j)


def test_pole_pairs_merge_into_double_poles():
    # with Im z1 = pi*tau/log K the four simple poles converge to the
    # double-pole shape; the gap decays like 1/log(K)^2
    x0, tau = 0.5, 0.6
    family = [
        SolveResult(K, x0 + 1j * math.pi * tau / math.log(K), 0.0, 0, 0, True)
        for K in (1e2, 1e4, 1e6, 1e8)
    ]
    problems, detail = checks.connection_convergence(family, LimitEstimate(x0, tau, 0.0, 0.0, 4))
    assert problems == []
    y = math.pi * tau / math.log(1e8)
    assert detail["sups"]["100000000"] == pytest.approx(2 * tau * y**2 / x0**4, rel=0.5)


# solved prevertices; the mirror identities hold for any prevertex, and
# these are the members the tracker draws
MIRROR_MEMBERS = {
    2.0: 1.2480751115729267 + 0.7676444105598118j,
    1e6: 1.9066636028168291 + 0.07896314688048475j,
    1e12: 1.9117075815487001 + 0.039472905519489496j,
    1e300: 1.9133454689329754 + 0.0015788036718361268j,
}
MIRROR_MAPS = [DevelopingMap.from_aspect(K, z1) for K, z1 in MIRROR_MEMBERS.items()] + [
    DevelopingMap.merged_limit(1.913348079505, 0.347148385025)
]
MIRROR_IDS = [f"K{K:g}" for K in MIRROR_MEMBERS] + ["limit"]


def _bits(a):
    return np.asarray(a, dtype=complex).tobytes()


def _off_axis_points(dev, n=400):
    # points off both axes, near the poles and far out
    rng = np.random.default_rng(23)
    z = rng.normal(size=n) * 2 + 1j * rng.normal(size=n) * 2
    near = np.array(dev.poles)[rng.integers(len(dev.poles), size=n)] + 1e-6 * np.exp(2j * np.pi * rng.uniform(size=n))
    far = 10.0 ** rng.uniform(1, 7, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return np.concatenate((z, near, far))


@pytest.mark.parametrize("dev", MIRROR_MAPS, ids=MIRROR_IDS)
def test_mirror_identities_hold_bit_for_bit(dev):
    # c(conj w) = conj c(w) and c(-conj w) = -conj c(w) exactly: the four
    # terms are summed in an order that both reflections only permute.
    # Equal as values, so a part that cancels to 0 may differ in the sign
    # of its zero (far out at K = 1e300, t1 and t4 round to one value)
    w = _off_axis_points(dev)
    vals = dev.connection(w)
    assert np.all(dev.connection(np.conj(w)) == np.conj(vals))
    assert np.all(dev.connection(-np.conj(w)) == -np.conj(vals))
    for point, val in zip(w[::37].tolist(), vals[::37]):
        assert dev.connection(point.conjugate()) == np.conj(val)
        assert dev.connection(-point.conjugate()) == -np.conj(val)


@pytest.mark.parametrize("dev", MIRROR_MAPS, ids=MIRROR_IDS)
def test_exactly_real_on_the_real_axis(dev):
    x = np.concatenate((np.linspace(-6.0, 6.0, 1201), [1e3, -1e5, 0.0]))
    x = x[np.min(np.abs(x[:, None] - np.array(dev.poles)), axis=1) > 1e-9]
    assert np.all(dev.connection(x).imag == 0.0)
    assert all(dev.connection(float(v)).imag == 0.0 for v in x[::50])


# far field, mid field, then 2x the connection's pole clearance around each
# pole in eight directions
ORACLE_FIELD = (1e4 + 2j, 3e5 - 1e5j, 1e7 + 3e6j, 1.5 + 0.7j, -2 + 3j, 0.3 - 0.4j, 5 + 1e-3j)
# the error bound, in ulps of beta * sum |1/(w - z_k)| (finite) or
# tau * sum |1/(w -+ x0)|^2 (limit): the scale of the terms the sum
# cancels; measured at most 1.02
ORACLE_ULPS = 4.0


@pytest.mark.parametrize("dev", MIRROR_MAPS, ids=MIRROR_IDS)
def test_against_mpmath(dev):
    mp = pytest.importorskip("mpmath")
    clearance = 1e-12 * (1.0 + max(abs(p) for p in dev.poles))
    ring = [cmath.exp(1j * (0.3 + k * math.pi / 4)) for k in range(8)]
    probes = list(ORACLE_FIELD) + [p + 2.0 * clearance * u for p in dev.poles for u in ring]
    vals = dev.connection(np.array(probes))
    with mp.workdps(40):
        poles = [mp.mpc(p.real, p.imag) for p in dev.poles]
        for w, val in zip(probes, vals):
            t = [1 / (mp.mpc(w.real, w.imag) - p) for p in poles]
            if dev.kind == "finite":
                beta = mp.log(mp.mpf(dev.K)) / (2j * mp.pi)
                exact = beta * sum(sign * tk for sign, tk in zip(PREVERTEX_SIGNS, t))
                scale = abs(beta) * sum(abs(tk) for tk in t)
            else:
                tau = mp.mpf(dev.tau)
                exact = tau * (t[1] ** 2 - t[0] ** 2)
                scale = tau * sum(abs(tk) ** 2 for tk in t)
            err = float(abs(mp.mpc(val.real, val.imag) - exact))
            assert err <= ORACLE_ULPS * 2.0**-52 * float(scale), (w, err)
            assert _bits(dev.connection(w)) == _bits(val)
