import numpy as np
import pytest

from affsurf.similitude import Similitude


def test_apply():
    f = Similitude(2.0, 1.0 - 1.0j)
    assert f(0.0) == 1.0 - 1.0j
    assert f(1.0j) == 1.0 + 1.0j


def test_compose_is_application_order():
    f = Similitude(2.0, 1.0)
    g = Similitude(1.0j, -1.0)
    h = f.compose(g)
    for z in (0.0, 1.0, 0.5 - 2.0j):
        assert h(z) == f(g(z))


def test_inverse_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = complex(*rng.normal(size=2))
        if abs(a) < 1e-3:
            continue
        b = complex(*rng.normal(size=2))
        f = Similitude(a, b)
        z = complex(*rng.normal(size=2))
        assert f.inverse()(f(z)) == pytest.approx(z, abs=1e-12)
        assert f.compose(f.inverse()).is_identity(tol=1e-12)


def test_fixed_point():
    # z -> 2z + 1 - i fixes -1 + i
    f = Similitude(2.0, 1.0 - 1.0j)
    assert f.fixed_point() == pytest.approx(-1.0 + 1.0j)
    assert f(f.fixed_point()) == pytest.approx(f.fixed_point())


def test_translation_has_no_fixed_point():
    with pytest.raises(ValueError):
        Similitude(1.0, 2.0j).fixed_point()


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        Similitude(0.0, 1.0)


def test_identity():
    e = Similitude(1.0, 0.0)
    assert e.is_identity()
    f = Similitude(1.5j, 2.0)
    assert f.compose(e) == f
    assert e.compose(f) == f
