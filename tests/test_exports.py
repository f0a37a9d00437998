"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import rfneuron

MODULES = [m.name for m in pkgutil.iter_modules(rfneuron.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"rfneuron.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
