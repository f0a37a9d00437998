"""Experiment configuration: YAML sections mapped onto the module types.

A config file holds one section per field of :class:`ExperimentConfig`
(neuron, integrator, handshake, ringdown, fi, chirp, sweep, montecarlo);
every key is optional and defaults to the calibrated values, so an empty
section stands for all of its defaults.  Each field's default says how its
YAML value is read: an enum takes a member's name in any case, a tuple a
list of numbers, and a nested dataclass a mapping (``ringdown.integrator``,
``montecarlo.model``).  No field is boolean, so a YAML ``true`` or
``false`` is rejected.  Two settings are inherited: the handshake's
``T_spk`` defaults to the neuron's, and ``ringdown.integrator`` overrides
the top-level ``integrator`` field by field.  All sections are validated by
the target types' own invariants before any simulation starts, and every
run writes the fully-defaulted effective configuration next to its outputs.

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
from enum import Enum
from pathlib import Path

import yaml

from .core import CircuitParams
from .errors import ConfigError
from .handshake import HandshakeConfig
from .integrator import IntegratorConfig
from .montecarlo import MonteCarloSetup
from .experiments import ChirpSetup, FISetup, RingdownSetup, SweepSetup

__all__ = ["ExperimentConfig", "load_config", "dump_effective_config"]

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated bundle of every experiment's settings, one field per config section."""

    neuron: CircuitParams = CircuitParams()
    integrator: IntegratorConfig = IntegratorConfig()
    handshake: HandshakeConfig = HandshakeConfig()
    ringdown: RingdownSetup = RingdownSetup()
    fi: FISetup = FISetup()
    chirp: ChirpSetup = ChirpSetup()
    sweep: SweepSetup = SweepSetup()
    montecarlo: MonteCarloSetup = MonteCarloSetup()


def _build(cls, section: dict, name: str | None):
    """Instantiate config dataclass ``cls`` from the YAML mapping ``section``.

    ``name`` is the section's dotted path, and None for the whole config.
    Fields are read in the order ``cls`` declares them, each by the kind of
    its default.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key in section:
        if key not in defaults:
            raise ConfigError(f"unknown config section '{key}'" if name is None
                              else f"unknown key '{key}' in config section '{name}'")
    kwargs = {}
    for key, default in defaults.items():
        if key not in section:
            continue
        value, where = section[key], key if name is None else f"{name}.{key}"
        if dataclasses.is_dataclass(default):
            value = _build(type(default), value, where)
        elif isinstance(value, bool) or isinstance(value, list) and any(
                isinstance(v, bool) for v in value):
            raise ConfigError(f"'{where}' takes no boolean, got {value!r}")
        elif isinstance(default, Enum) and isinstance(value, str):
            with contextlib.suppress(ValueError):  # the type rejects an unknown name
                value = type(default)(value.lower())
        elif isinstance(default, tuple) and isinstance(value, list):
            try:
                value = tuple(float(v) for v in value)
            except (ValueError, TypeError):
                raise ConfigError(f"'{where}' entries must be numbers, got {value!r}") from None
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
    if overrides:
        for dotted, value in overrides.items():
            parts = dotted.split(".")
            node = raw
            for p in parts[:-1]:
                node = node.setdefault(p, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"cannot override '{dotted}'")
            node[parts[-1]] = value

    # the inherited settings; a section that is not a mapping is left to _build to reject
    neuron, handshake = raw.get("neuron", {}), raw.get("handshake", {})
    if isinstance(neuron, dict) and isinstance(handshake, dict):
        raw["handshake"] = {"T_spk": neuron.get("T_spk", CircuitParams.T_spk), **handshake}
    integ, ringdown = raw.get("integrator", {}), raw.get("ringdown", {})
    if isinstance(integ, dict) and isinstance(ringdown, dict):
        rd_integ = ringdown.get("integrator", {})
        if isinstance(rd_integ, dict):
            raw["ringdown"] = {**ringdown, "integrator": {**integ, **rd_integ}}
    return _build(ExperimentConfig, raw, None)


def _yaml_fault(exc: yaml.YAMLError) -> str:
    """One line naming what PyYAML found wrong and, when it knows, where (1-based)."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return " ".join(str(exc).split())
    return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
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
