"""Every demo script imports cleanly, so a removed package name breaks Tier-1."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    # demos run main() only under __main__, so loading one runs no experiment
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
