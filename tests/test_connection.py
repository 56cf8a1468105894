import math

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
    with pytest.raises(ArithmeticError):
        c.connection(np.array([5.0, -0.8 + 0.3j]))


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
