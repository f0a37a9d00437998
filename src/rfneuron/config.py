"""Experiment configuration: YAML sections mapped onto the module types.

A config file holds named sections (neuron, integrator, handshake,
ringdown, fi, chirp, sweep, montecarlo); every key is optional and
defaults to the calibrated values, so an empty section stands for all of
its defaults.  All sections are validated by the target types' own
invariants before any simulation starts, and every run writes the
fully-defaulted effective configuration next to its outputs.

YAML is parsed and emitted by libyaml (PyYAML's ``CSafeLoader`` and
``CSafeDumper``) when PyYAML was built with it, and by the pure-Python
``SafeLoader`` and ``SafeDumper`` otherwise.  Both pairs share PyYAML's
Python resolver, constructor and representer, so they load the same values
and dump the same bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .core import CircuitParams
from .errors import ConfigError, require_finite
from .handshake import AckMode, HandshakeConfig
from .integrator import IntegratorConfig
from .montecarlo import MismatchModel
from .stimuli import Polarity
from .experiments import ChirpSetup, FISetup, RingdownSetup, SweepSetup, _require_counts

__all__ = ["ExperimentConfig", "load_config", "dump_effective_config"]

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass(frozen=True)
class MonteCarloSetup:
    """Population size, mismatch model and the per-die ringdown protocol.

    The per-die ringdown uses a gentler 0.4 V pulse than the standard
    characterization so that dies at the small-margin tail of the spread
    still ring below threshold and yield well-defined metrics.  ``workers``
    caps the process pool, which never exceeds ``n_dies`` or the CPU count;
    the outputs do not depend on it.
    """

    n_dies: int = 100
    model: MismatchModel = MismatchModel()
    amplitude: float = 0.4
    workers: int = 1

    def __post_init__(self) -> None:
        require_finite(self)
        _require_counts(self, 2, "n_dies")
        _require_counts(self, 1, "workers")

    def ringdown(self, base: RingdownSetup) -> RingdownSetup:
        return dataclasses.replace(base, amplitude=self.amplitude)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated bundle of every experiment's settings."""

    neuron: CircuitParams = CircuitParams()
    integrator: IntegratorConfig = IntegratorConfig()
    handshake: HandshakeConfig = HandshakeConfig(T_spk=CircuitParams().T_spk)
    ringdown: RingdownSetup = RingdownSetup()
    fi: FISetup = FISetup()
    chirp: ChirpSetup = ChirpSetup()
    sweep: SweepSetup = SweepSetup()
    montecarlo: MonteCarloSetup = MonteCarloSetup()


_ENUM_FIELDS = {
    "polarity": Polarity,
    "mode": AckMode,
}


def _build(cls, section: dict, name: str):
    """Instantiate a config dataclass from one YAML section."""
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in config section '{name}'")
        if key in _ENUM_FIELDS and isinstance(value, str):
            with contextlib.suppress(ValueError):  # the type rejects an unknown name
                value = _ENUM_FIELDS[key](value.lower())
        if key == "ack_delays" and isinstance(value, list):
            try:
                value = tuple(float(v) for v in value)
            except (ValueError, TypeError):
                raise ConfigError(f"'{name}.ack_delays' entries must be numbers, got {value!r}")
        if key == "model":
            value = _build(MismatchModel, value, f"{name}.model")
        if key == "integrator":
            value = _build(IntegratorConfig, value, f"{name}.integrator")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config section '{name}': {exc}") from exc


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a config file; missing sections use defaults.

    ``overrides`` maps dotted keys ('integrator.dt', 'montecarlo.model.seed')
    onto replacement values, applied after the file is read.  A file that
    is not well-formed YAML raises :class:`ConfigError` naming the line and
    column of the fault.
    """
    raw: dict = {}
    if path is not None:
        with open(path, "rb") as fh:
            try:
                loaded = yaml.load(fh, Loader=_Loader)
            except yaml.YAMLError as exc:
                raise ConfigError(f"malformed YAML in {path}: {_yaml_fault(exc)}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config root must be a mapping: {path}")
        # an empty section (`ringdown:` with no keys) loads as None
        raw = {key: {} if value is None else value for key, value in loaded.items()}
    sections = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in raw:
        if key not in sections:
            raise ConfigError(f"unknown config section '{key}'")
    if overrides:
        for dotted, value in overrides.items():
            parts = dotted.split(".")
            node = raw
            for p in parts[:-1]:
                node = node.setdefault(p, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"cannot override '{dotted}'")
            node[parts[-1]] = value

    neuron = _build(CircuitParams, raw.get("neuron", {}), "neuron")
    integ = _build(IntegratorConfig, raw.get("integrator", {}), "integrator")
    hs_section = dict(raw.get("handshake", {}))
    hs_section.setdefault("T_spk", neuron.T_spk)
    handshake = _build(HandshakeConfig, hs_section, "handshake")

    # ringdown.integrator keys override the top-level integrator field by field
    rd_section = dict(raw.get("ringdown", {}))
    rd_integ = rd_section.get("integrator", {})
    if isinstance(rd_integ, dict):
        rd_section["integrator"] = {**dataclasses.asdict(integ), **rd_integ}
    ringdown = _build(RingdownSetup, rd_section, "ringdown")

    fi = _build(FISetup, raw.get("fi", {}), "fi")
    chirp = _build(ChirpSetup, raw.get("chirp", {}), "chirp")
    sweep = _build(SweepSetup, raw.get("sweep", {}), "sweep")
    mc = _build(MonteCarloSetup, raw.get("montecarlo", {}), "montecarlo")
    return ExperimentConfig(
        neuron=neuron, integrator=integ, handshake=handshake,
        ringdown=ringdown, fi=fi, chirp=chirp, sweep=sweep, montecarlo=mc,
    )


def _yaml_fault(exc: yaml.YAMLError) -> str:
    """One line naming what PyYAML found wrong and, when it knows, where (1-based)."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return " ".join(str(exc).split())
    return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (Polarity, AckMode)):
        return obj.value
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def dump_effective_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Write the fully-defaulted configuration for provenance."""
    with open(path, "w") as fh:
        yaml.dump(_plain(cfg), fh, Dumper=_Dumper, sort_keys=True, default_flow_style=False)
