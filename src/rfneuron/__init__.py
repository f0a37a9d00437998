"""Behavioral simulator of an asynchronous mixed-signal resonate-and-fire neuron.

The package models the subthreshold Lotka-Volterra resonator core, the
comparator-triggered four-phase request/acknowledge handshake, exponential
synapses driven by piecewise stimulus programs, the metric extractors for
ringdown / F-I / frequency-selectivity characterization, and die-to-die
mismatch population studies.
"""

from .core import (
    CircuitParams,
    DerivedParams,
    LinearizedRFState,
    NeuronState,
    derive_params,
    lv_invariant,
    lv_transform,
    linearized_solution,
    rhs,
)
from .errors import ConfigError, ProtocolError, UndefinedMetricError
from .handshake import AckMode, HandshakeConfig, SpikeEvent
from .integrator import IntegratorConfig, Trace, integrate
from .stimuli import (
    Polarity,
    StimulusProgram,
    pulse,
    spiking_chirp,
    step,
    synapse_current,
)
from .analysis import (
    FiringRate,
    MetricsRecord,
    TuningMap,
    fi_curve,
    firing_rate,
    linear_fit,
    tuning_map,
)
from .experiments import (
    ChirpSetup,
    FISetup,
    RingdownSetup,
    SweepSetup,
    run_bias_sweep,
    run_chirp,
    run_ringdown,
)
from .montecarlo import MismatchModel, PopulationStats, run_population, sample_die

__version__ = "0.1.0"
