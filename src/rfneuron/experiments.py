"""Canned experiments: ringdown, F-I sweep, chirp raster, bias sweep.

Each runner owns the stimulus construction and integrator settings of one
measurement protocol and returns plain data (traces, events, metric rows)
for the caller to serialize; the metrics come from :mod:`rfneuron.analysis`,
and ``ringdown_metrics`` is re-exported here.  Sweeps rescale the step size
and horizon with the nominal resonance so every operating point is resolved
equally well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import MetricsRecord, map_lanes, ringdown_metrics
from .core import CircuitParams, NeuronState, derive_params
from .errors import (
    ConfigError, require_count, require_finite, require_increasing, require_member,
    require_positive,
)
from .handshake import HandshakeConfig, SpikeEvent
from .integrator import IntegratorConfig, Trace, integrate
from .stimuli import Polarity, StimulusProgram, pulse, spiking_chirp

__all__ = [
    "RingdownSetup",
    "ChirpSetup",
    "SweepSetup",
    "FISetup",
    "run_ringdown",
    "ringdown_metrics",
    "run_chirp",
    "run_bias_sweep",
]

# Steps per nominal period maintained by sweep runners (10 us at the 150 pA
# operating point); they record every 5th step, i.e. every period/90.
SWEEP_STEPS_PER_PERIOD = 450.0

# Periods of ringdown simulated by sweep runners (0.3 s at 150 pA).
SWEEP_PERIODS = 66.5


@dataclass(frozen=True)
class RingdownSetup:
    """Inhibitory-pulse ringdown protocol and its extraction windows."""

    t0: float = 1e-3
    width: float = 100e-6
    amplitude: float = 0.5
    polarity: Polarity = Polarity.INH
    horizon: float = 0.3
    settle_window: float = 0.05
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self) -> None:
        require_finite(self)
        require_member(self, "polarity", Polarity)
        if not 0.0 < self.settle_window <= self.horizon:
            raise ConfigError(f"settle_window must lie in (0, horizon={self.horizon!r}], "
                              f"got {self.settle_window!r}")

    def program(self, v_limit: float) -> StimulusProgram:
        return pulse(self.t0, self.width, self.amplitude, self.polarity, v_limit=v_limit)


@dataclass(frozen=True)
class ChirpSetup:
    """Pulse-train chirp band and the bias/threshold sweep for the tuning map.

    The threshold law rises exponentially with the bias current between
    840 and 900 mV across the full characterized 105-255 pA span (the
    anchor range).  The default sweep covers only the currents whose
    resonance stays inside the chirp band under this package's frequency
    calibration: at higher currents the resonance leaves the band and the
    neuron locks onto the subharmonic of its own ring-up, which scrambles
    the detected-frequency map.  Wider sweeps remain available by raising
    ``bias_max``.
    """

    f_start: float = 131.0
    f_end: float = 262.0
    n_freqs: int = 13
    spikes_per_freq: int = 10
    pulse_width: float = 100e-6
    amplitude: float = 0.5
    polarity: Polarity = Polarity.INH
    bias_min: float = 105e-12
    bias_max: float = 162e-12
    n_bias: int = 11
    vth_min: float = 0.840
    vth_max: float = 0.900
    vth_anchor_min: float = 105e-12
    vth_anchor_max: float = 255e-12
    dt: float = IntegratorConfig.dt
    sample_stride: int = IntegratorConfig.sample_stride

    def __post_init__(self) -> None:
        require_finite(self)
        require_member(self, "polarity", Polarity)
        require_count(self, 1, "n_freqs", "spikes_per_freq", "n_bias", "sample_stride")
        require_positive(self, "f_start", "bias_min", "bias_max", "vth_min", "vth_max",
                         "vth_anchor_min", "dt")
        if not self.vth_anchor_min < self.vth_anchor_max:
            raise ConfigError(
                f"vth_anchor_min={self.vth_anchor_min!r} must be below "
                f"vth_anchor_max={self.vth_anchor_max!r}"
            )
        require_increasing(self.bias_levels(), "chirp bias levels must increase: "
                           f"{self.n_bias} levels from bias_min={self.bias_min!r} "
                           f"to bias_max={self.bias_max!r}")

    def program(self, v_limit: float) -> StimulusProgram:
        return spiking_chirp(
            self.f_start, self.f_end, self.n_freqs, self.spikes_per_freq,
            self.pulse_width, self.amplitude, self.polarity, v_limit=v_limit,
        )

    def integrator_config(self, prog: StimulusProgram) -> IntegratorConfig:
        """Step settings for a run over the whole chirp ``prog``."""
        return IntegratorConfig(
            dt=self.dt, t_end=prog.freq_blocks[-1].t_end, sample_stride=self.sample_stride,
        )

    def bias_levels(self) -> list[float]:
        return np.geomspace(self.bias_min, self.bias_max, self.n_bias).tolist()

    def vth_for_bias(self, bias: float) -> float:
        """Threshold rising exponentially with bias across the anchor range."""
        w = math.log(bias / self.vth_anchor_min) / math.log(
            self.vth_anchor_max / self.vth_anchor_min
        )
        return self.vth_min * (self.vth_max / self.vth_min) ** w

    def vth_schedule(self) -> list[float]:
        return [self.vth_for_bias(b) for b in self.bias_levels()]


@dataclass(frozen=True)
class SweepSetup:
    """Bias-current sweep for the frequency-vs-current characteristic.

    The ringdown pulse is deliberately small-signal (0.4 V drive) so the
    extracted frequency probes the linear resonance, not the amplitude-
    stretched orbit of the standard 0.5 V pulse.
    """

    I_min: float = 10e-12
    I_max: float = 2.51e-9
    n_points: int = 15
    amplitude: float = 0.4
    width: float = 100e-6

    def __post_init__(self) -> None:
        require_finite(self)
        require_count(self, 1, "n_points")
        require_positive(self, "I_min", "I_max")

    def levels(self) -> list[float]:
        return np.geomspace(self.I_min, self.I_max, self.n_points).tolist()


@dataclass(frozen=True)
class FISetup:
    """Step-input firing-rate sweep (threshold lowered to 840 mV)."""

    level_min: float = 0.0
    level_max: float = 0.5
    n_levels: int = 26
    spikes_per_point: int = 100
    V_th: float = 0.840
    timeout: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self)
        require_count(self, 1, "n_levels")
        require_count(self, 2, "spikes_per_point")  # a rate needs one inter-spike interval
        require_positive(self, "timeout")
        require_increasing(self.levels(), "fi levels must increase: "
                           f"{self.n_levels} levels from level_min={self.level_min!r} "
                           f"to level_max={self.level_max!r}")

    def levels(self) -> list[float]:
        return np.linspace(self.level_min, self.level_max, self.n_levels).tolist()


def run_ringdown(
    p: CircuitParams,
    setup: RingdownSetup | None = None,
    protocol: HandshakeConfig | None = None,
) -> tuple[Trace, list[SpikeEvent], MetricsRecord]:
    """Simulate the pulse ringdown from equilibrium and extract its metrics."""
    if setup is None:
        setup = RingdownSetup()
    cfg = replace(setup.integrator, t_end=setup.horizon)
    prog = setup.program(v_limit=p.V_DD)
    dp = derive_params(p)
    s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
    trace, events = integrate(s0, p, prog, cfg, protocol)
    metrics = ringdown_metrics(trace, setup.t0 + setup.width, setup.settle_window)
    return trace, events, metrics


def run_chirp(
    p: CircuitParams,
    setup: ChirpSetup | None = None,
    protocol: HandshakeConfig | None = None,
) -> tuple[Trace, list[SpikeEvent], StimulusProgram]:
    """Simulate the chirp raster at the given bias; returns the program too."""
    if setup is None:
        setup = ChirpSetup()
    prog = setup.program(v_limit=p.V_DD)
    cfg = setup.integrator_config(prog)
    dp = derive_params(p)
    s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
    trace, events = integrate(s0, p, prog, cfg, protocol)
    return trace, events, prog


def run_bias_sweep(
    base: CircuitParams,
    setup: SweepSetup | None = None,
) -> list[dict]:
    """Measured vs analytic resonance across a log grid of bias currents.

    Each point runs a small-signal ringdown with the step size and horizon
    rescaled to its nominal period.  Points whose oscillation could not be
    measured are flagged (``f_res`` NaN), never dropped.  The points run on
    :func:`~rfneuron.analysis.map_lanes`, one lane per CPU up to its cap,
    and the rows come back in bias order whatever the lane count.  There is
    no option for it.
    """
    if setup is None:
        setup = SweepSetup()

    def point(I: float) -> dict:
        p = replace(base, I_IU=I, I_IV=I)
        dp = derive_params(p)
        f_nom = dp.f_res
        dt = 1.0 / (SWEEP_STEPS_PER_PERIOD * f_nom)
        horizon = SWEEP_PERIODS / f_nom
        rd = RingdownSetup(
            t0=0.2 / f_nom,  # short settle before the kick, scaled with the period
            width=setup.width,
            amplitude=setup.amplitude,
            horizon=horizon,
            settle_window=horizon / 6.0,
            integrator=IntegratorConfig(dt=dt, t_end=horizon, sample_stride=5),
        )
        _, _, metrics = run_ringdown(p, rd)
        return {
            "I_A": I,
            "f_res_Hz": metrics.f_res,
            "f_analytic_Hz": f_nom,
            "flags": ";".join(metrics.flags),
        }

    return map_lanes(point, setup.levels())
