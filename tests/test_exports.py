"""Every name a module lists in ``__all__`` exists, and the package imports light."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import rfneuron

MODULES = [m.name for m in pkgutil.iter_modules(rfneuron.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"rfneuron.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_import_loads_no_scipy():
    # scipy's import alone took ~1.3 s of every CLI start, for one peak search
    code = ("import sys, rfneuron, rfneuron.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""
