"""Die-to-die mismatch sampling and population statistics.

Threshold-voltage mismatch of the two exponential-branch transistors enters
as independent log-normal factors on the per-branch process currents, which
shifts the voltage baselines without moving the resonance.  Bias-current
generation and capacitor mismatch enter as Gaussian relative perturbations
and carry the frequency spread.  The damping residue, being the imperfect
cancellation of two large loop gains, is by far the most mismatch-sensitive
quantity; it receives its own (wide) log-normal factor and dominates the
quality-factor spread.

Sampling is deterministic per (seed, die index): each die derives an
independent random stream, and invalid draws are rejected and resampled
from the same stream rather than clamped, so tails stay unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import MAX_LANES, MetricsRecord, map_lanes
from .core import CircuitParams, derive_params
from .errors import ConfigError, require_count, require_finite, require_nonnegative
from .experiments import RingdownSetup, run_ringdown
from .handshake import HandshakeConfig

__all__ = [
    "MismatchModel",
    "MonteCarloSetup",
    "PopulationStats",
    "sample_die",
    "run_population",
    "METRIC_NAMES",
]

METRIC_NAMES = (
    "baseline_U",
    "baseline_V",
    "first_peak_U",
    "first_peak_V",
    "f_res",
    "q_factor",
)

_MAX_RESAMPLES_PER_DIE = 1000


@dataclass(frozen=True)
class MismatchModel:
    """Process-variation sigmas (defaults calibrated, see module docstring)."""

    sigma_ln_In0_alpha: float = 0.15
    sigma_ln_In0_beta: float = 0.15
    sigma_C: float = 0.05
    sigma_I_bias: float = 0.21
    sigma_ln_g_damp: float = 0.60
    seed: int = 20260810

    def __post_init__(self) -> None:
        require_finite(self)
        require_count(self, 0, "seed")
        require_nonnegative(self, "sigma_ln_In0_alpha", "sigma_ln_In0_beta", "sigma_C",
                            "sigma_I_bias", "sigma_ln_g_damp")


@dataclass(frozen=True)
class MonteCarloSetup:
    """Population size, mismatch model and the per-die ringdown protocol.

    The per-die ringdown uses a gentler 0.4 V pulse than the standard
    characterization so that dies at the small-margin tail of the spread
    still ring below threshold and yield well-defined metrics.  The dies run
    on ``analysis.map_lanes``, one lane per CPU up to ``MAX_LANES``, as every
    other set of independent runs does.  There is no option for it.
    """

    n_dies: int = 100
    model: MismatchModel = MismatchModel()
    amplitude: float = 0.4

    def __post_init__(self) -> None:
        require_finite(self)
        require_count(self, 2, "n_dies")

    def ringdown(self, base: RingdownSetup) -> RingdownSetup:
        return replace(base, amplitude=self.amplitude)


@dataclass(frozen=True)
class PopulationStats:
    """Aggregated per-metric statistics over a simulated die population."""

    n_dies: int
    records: tuple[MetricsRecord, ...]
    stats: dict
    n_resampled: int = 0

    def cv_percent(self, metric: str) -> float:
        return self.stats[metric]["cv_percent"]


def _sample_die_counted(
    base: CircuitParams, m: MismatchModel, die_index: int
) -> tuple[CircuitParams, int]:
    """Sampled die plus the number of rejected draws before it."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=m.seed, spawn_key=(die_index,))
    )
    for attempt in range(_MAX_RESAMPLES_PER_DIE):
        z = rng.standard_normal(7).tolist()  # the same doubles, as Python floats
        try:
            die = replace(
                base,
                I_n0_alpha=base.In0_alpha * math.exp(m.sigma_ln_In0_alpha * z[0]),
                I_n0_beta=base.In0_beta * math.exp(m.sigma_ln_In0_beta * z[1]),
                C1=base.C1 * (1.0 + m.sigma_C * z[2]),
                C2=base.C2 * (1.0 + m.sigma_C * z[3]),
                I_IU=base.I_IU * (1.0 + m.sigma_I_bias * z[4]),
                I_IV=base.I_IV * (1.0 + m.sigma_I_bias * z[5]),
                g_damp=base.g_damp * math.exp(m.sigma_ln_g_damp * z[6]),
            )
            derive_params(die)  # also requires biases above the branch currents
        except ValueError:
            continue
        return die, attempt
    raise ConfigError(
        f"die {die_index}: no valid parameter draw in {_MAX_RESAMPLES_PER_DIE} attempts; "
        "the mismatch model admits no valid die around this neuron"
    )


def sample_die(base: CircuitParams, m: MismatchModel, die_index: int) -> CircuitParams:
    """One die's parameter set under the mismatch model.

    Log-normal multiplicative factors perturb the two branch process
    currents and the damping residue; Gaussian relative factors perturb
    C1, C2 and the two bias currents.  Deterministic per (seed, die_index);
    draws violating the parameter invariants are rejected and redrawn from
    the same per-die stream, and :class:`ConfigError` is raised when no
    valid draw turns up.
    """
    return _sample_die_counted(base, m, die_index)[0]


def _aggregate(values: list[float]) -> dict:
    finite = np.asarray([v for v in values if math.isfinite(v)])
    n_excluded = len(values) - len(finite)
    if len(finite) == 0:
        return {"mean": math.nan, "std": math.nan, "cv_percent": math.nan,
                "n_defined": 0, "n_excluded": n_excluded}
    mean = float(np.mean(finite))
    std = float(np.std(finite, ddof=1)) if len(finite) > 1 else 0.0
    cv = 100.0 * std / mean if mean > 0.0 else math.nan
    return {"mean": mean, "std": std, "cv_percent": cv,
            "n_defined": int(len(finite)), "n_excluded": n_excluded}


def run_population(
    base: CircuitParams,
    m: MismatchModel,
    n_dies: int,
    setup: RingdownSetup | None = None,
    workers: int = MAX_LANES,
    protocol: HandshakeConfig | None = None,
) -> PopulationStats:
    """Ringdown metrics and their spread over ``n_dies`` sampled dies.

    Dies are independent; they run on ``analysis.map_lanes`` with
    ``workers`` as its lane cap, so at most
    ``min(n_dies, os.cpu_count(), workers, MAX_LANES)`` dies run at once,
    the calling thread being one of the lanes.  The result is identical to a
    sequential run, and a die that raises stops the dies not yet started.
    Every die's ringdown uses ``protocol`` (by default a self-acknowledge
    hold of the die's ``T_spk``).  Dies whose metric is undefined are
    excluded from that metric's statistics and counted in ``n_excluded``.
    """
    if n_dies < 2:
        raise ValueError("population statistics need at least 2 dies")
    if setup is None:
        setup = RingdownSetup()

    def die_metrics(die_index: int) -> tuple[MetricsRecord, int]:
        die, rejected = _sample_die_counted(base, m, die_index)
        _, _, metrics = run_ringdown(die, setup, protocol)
        return metrics, rejected

    results = map_lanes(die_metrics, range(n_dies), workers)
    records = tuple(rec for rec, _ in results)
    stats = {
        name: _aggregate([getattr(r, name) for r in records])
        for name in METRIC_NAMES
    }
    return PopulationStats(
        n_dies=n_dies, records=records, stats=stats,
        n_resampled=sum(rejected for _, rejected in results),
    )
