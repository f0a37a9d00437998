"""The default step is converged: halving it leaves every protocol's output unchanged.

Each protocol runs at the default ``IntegratorConfig`` step and again at
half that step with twice the sample stride, so both runs are read on the
same sample grid (Richardson-style step control, Hairer, Norsett & Wanner,
Solving ODEs I, II.4).  A coarser default that moved any output beyond
these tolerances fails here.
"""

import dataclasses

import numpy as np
import pytest

from rfneuron import CircuitParams, IntegratorConfig, fi_curve
from rfneuron.experiments import ChirpSetup, FISetup, RingdownSetup, run_chirp, run_ringdown

DEFAULT = IntegratorConfig()
HALF = dataclasses.replace(DEFAULT, dt=DEFAULT.dt / 2, sample_stride=2 * DEFAULT.sample_stride)

RINGDOWN_REL_TOL = 1e-8
FI_REL_TOL = 1e-6
FI_LEVELS = [0.44, 0.50]  # V, above the firing onset

METRICS = ("baseline_U", "baseline_V", "first_peak_U", "first_peak_V", "f_res", "q_factor")


def test_ringdown_metrics_converged():
    p = CircuitParams()
    tr_a, events_a, m_a = run_ringdown(p)
    tr_b, events_b, m_b = run_ringdown(p, RingdownSetup(integrator=HALF))
    assert not events_a and not events_b
    assert len(tr_a) == len(tr_b)
    np.testing.assert_allclose(tr_a.t, tr_b.t, rtol=0.0, atol=1e-12)
    assert m_a.flags == m_b.flags == ()
    for name in METRICS:
        a, b = getattr(m_a, name), getattr(m_b, name)
        assert a == pytest.approx(b, rel=RINGDOWN_REL_TOL), name


def test_chirp_spike_times_converged():
    p = CircuitParams()
    _, events_a, _ = run_chirp(p)
    half = ChirpSetup(dt=HALF.dt, sample_stride=HALF.sample_stride)
    _, events_b, _ = run_chirp(p, half)
    assert len(events_a) == len(events_b) > 0
    for a, b in zip(events_a, events_b):
        assert abs(a.t_req - b.t_req) <= 2.0 * DEFAULT.crossing_tol


def test_fi_rates_converged():
    setup = FISetup()
    p = dataclasses.replace(CircuitParams(), V_th=setup.V_th)
    kwargs = dict(spikes_per_point=setup.spikes_per_point, timeout=setup.timeout)
    rows_a = fi_curve(p, FI_LEVELS, **kwargs)
    rows_b = fi_curve(p, FI_LEVELS, cfg=HALF, **kwargs)
    for (level, rate_a, _), (_, rate_b, _) in zip(rows_a, rows_b):
        assert rate_a > 0.0, level
        assert rate_a == pytest.approx(rate_b, rel=FI_REL_TOL), level
