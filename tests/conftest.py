import dataclasses
import os
import subprocess
import sys

import pytest

from rfneuron import CircuitParams
from rfneuron.integrator import _lib


def pytest_report_header(config):
    """Name the compiled RK4 kernel that ran and the gcc that built it."""
    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True,
                             check=True).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError) as exc:
        gcc = f"unavailable ({exc})"
    return [f"rfneuron RK4 kernel: {_lib._name}", f"gcc: {gcc}"]


@pytest.fixture(scope="session")
def default_params() -> CircuitParams:
    return CircuitParams()


@pytest.fixture(scope="session")
def symmetric_params() -> CircuitParams:
    """Both exponential branches on the shared 47 fA process current."""
    return dataclasses.replace(CircuitParams(), I_n0_beta=None)


@pytest.fixture
def on_cpus(monkeypatch):
    """``on_cpus(cpus, run)`` is ``run()`` with ``os.cpu_count`` reporting ``cpus``, and with
    threads switching every microsecond so that lanes interleave."""

    def run_on(cpus, run):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return run()
        finally:
            sys.setswitchinterval(interval)

    return run_on
