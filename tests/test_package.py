"""The package's public names."""

import importlib

import pytest

import affsurf


def test_public_api_resolves():
    names = affsurf.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(affsurf, n)]
    assert not missing, f"__all__ names missing from the package: {missing}"
    # the connection lives on DevelopingMap; the old module is gone
    with pytest.raises(ImportError):
        importlib.import_module("affsurf.connection")
