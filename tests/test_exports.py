"""Every name a module lists in ``__all__`` exists, the package imports light, and the
benchmark's traced call sites still exist."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rfneuron
from rfneuron import (
    CircuitParams, IntegratorConfig, NeuronState, analysis, derive_params, experiments,
    handshake, integrator, montecarlo, step,
)

MODULES = [m.name for m in pkgutil.iter_modules(rfneuron.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"rfneuron.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_no_module_imports_a_private_name_from_another():
    # a private name is one module's detail; another module that needs it needs a public name
    private = []
    for path in sorted(Path(rfneuron.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                            f"import {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_every_metric_lives_in_analysis():
    assert experiments.ringdown_metrics is analysis.ringdown_metrics
    for name in ("ringdown_metrics", "firing_rate", "FiringRate", "linear_fit"):
        assert getattr(analysis, name).__module__ == "rfneuron.analysis"
    assert rfneuron.firing_rate is analysis.firing_rate
    assert rfneuron.FiringRate is analysis.FiringRate
    assert rfneuron.linear_fit is analysis.linear_fit
    assert not hasattr(handshake, "np")


def test_one_parallel_mechanism():
    # every lane runs on analysis.map_lanes's threads: no process pool and no executor
    imported = {}  # each part of an absolutely imported dotted name -> the files importing it
    for path in sorted(Path(rfneuron.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for part in (p for name in names for p in name.split(".")):
                imported.setdefault(part, set()).add(path.name)
    for forbidden in ("concurrent", "multiprocessing", "ProcessPoolExecutor"):
        assert forbidden not in imported
    assert imported["threading"] == {"analysis.py"}


def test_only_analysis_and_experiments_call_integrate():
    # the benchmark's traced runs wrap analysis.integrate and experiments.integrate and
    # sum their simulated time; an integrate() called from elsewhere is missing from it
    importing, calling = set(), set()
    for path in sorted(Path(rfneuron.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("integrator",
                                                                    "rfneuron.integrator"):
                if "integrate" in (a.name for a in node.names):
                    importing.add(path.name)
            elif isinstance(node, ast.Call) and "integrate" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calling.add(path.name)
    assert importing == {"__init__.py", "analysis.py", "experiments.py"}  # the root re-exports
    assert calling == {"analysis.py", "experiments.py"}


def test_import_loads_no_scipy():
    # scipy's import alone took ~1.3 s of every CLI start, for one peak search
    code = ("import sys, rfneuron, rfneuron.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""


def test_ringdown_and_line_fit_load_no_numpy_ma():
    # np.median imports numpy.ma, which with its first call cost 1.7 MB of peak memory
    code = ("import sys; from rfneuron import CircuitParams, linear_fit; "
            "from rfneuron.experiments import RingdownSetup, run_ringdown; "
            "run_ringdown(CircuitParams(), RingdownSetup(horizon=0.02, settle_window=0.005)); "
            "linear_fit([1.0, 2.0, 3.0], [2.0, 4.1, 5.9]); "
            "print(*sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""


def _traced_names(monkeypatch, capsys, run) -> set[str]:
    """The span names recorded while ``run()`` runs under the benchmark's tracing.

    perfbench wraps module attributes by name; a renamed one is skipped with a
    "not found" warning and its layer metric silently reads 0.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    rec = spans.Recorder()
    layers.install(rec)
    try:
        run()
    finally:
        rec.restore()
    assert "not found" not in capsys.readouterr().err
    return {s.name for s in rec.spans}


def test_benchmark_wrappers_install_on_the_package(monkeypatch, capsys):
    # install() evaluates analysis.integrate and experiments.integrate and subclasses
    # integrator.HandshakeFSM; the population workload passes run_population workers=2
    _traced_names(monkeypatch, capsys, lambda: inspect.signature(montecarlo.run_population).bind(
        CircuitParams(), montecarlo.MismatchModel(), 8, None, workers=2))


def test_benchmark_tracing_still_wraps_the_ringdown_extraction(monkeypatch, capsys):
    setup = experiments.RingdownSetup(horizon=0.02, settle_window=0.005)
    names = _traced_names(monkeypatch, capsys,
                          lambda: experiments.run_ringdown(CircuitParams(), setup))
    assert "analysis.ringdown_metrics" in names


def test_benchmark_tracing_still_wraps_the_event_path(monkeypatch, capsys):
    p = dataclasses.replace(CircuitParams(), V_th=0.840)
    dp = derive_params(p)

    def run():
        _, events = integrator.integrate(NeuronState(t=0.0, U=dp.U_star, V=dp.V_star), p,
                                         step(0.5), IntegratorConfig(t_end=0.01))
        assert len(events) >= 2

    names = _traced_names(monkeypatch, capsys, run)
    assert {"handshake.on_threshold", "handshake.release", "stimuli.synapse_current",
            "core.derive_params"} <= names
