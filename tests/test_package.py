"""The package's public names."""

import importlib
import os
import subprocess
import sys
import textwrap

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


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's affsurf."""
    src = os.path.dirname(os.path.dirname(affsurf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env
    )


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, verify
    # still reaches the Brent anchors and the nearest-neighbour pass
    proc = _python(f"""
        import sys
        sys.modules["scipy"] = None
        import affsurf.cli
        sys.exit(affsurf.cli.main(["verify", "--k", "2", "--density", "60", "--out", {str(tmp_path)!r}]))
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = _python("""
        import sys
        import affsurf.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
