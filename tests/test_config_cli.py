"""Config parsing/validation, effective-config provenance, CLI surfaces."""

import contextlib
import dataclasses
import filecmp
import io
import json
import math
import os
import re
import tempfile
import threading
from enum import Enum
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfneuron import CircuitParams, HandshakeConfig, IntegratorConfig, MismatchModel, cli, config
from rfneuron.cli import main, write_csv, write_json
from rfneuron.config import (
    ExperimentConfig, MonteCarloSetup, _plain, dump_effective_config, load_config,
)
from rfneuron.errors import ConfigError, UndefinedMetricError
from rfneuron.experiments import ChirpSetup, FISetup, RingdownSetup, SweepSetup

FAST_CONFIG = """
integrator:
  dt: 2.0e-06
  t_end: 0.06
  sample_stride: 25
ringdown:
  horizon: 0.06
  settle_window: 0.012
  integrator:
    dt: 2.0e-06
    t_end: 0.06
    sample_stride: 25
fi:
  n_levels: 4
  level_min: 0.38
  level_max: 0.47
  spikes_per_point: 10
  timeout: 0.1
chirp:
  n_freqs: 3
  spikes_per_freq: 4
  f_start: 180.0
  f_end: 260.0
  n_bias: 2
  bias_max: 1.3e-10
sweep:
  n_points: 4
  I_min: 5.0e-11
  I_max: 4.0e-10
montecarlo:
  n_dies: 3
  model:
    seed: 123
"""


@pytest.fixture()
def fast_config(tmp_path) -> Path:
    path = tmp_path / "fast.yaml"
    path.write_text(FAST_CONFIG)
    return path


def _captured_cfg(monkeypatch, name: str, argv: list[str]) -> IntegratorConfig:
    """Run the CLI with ``cli.<name>`` stubbed out; return the ``cfg`` it was given."""
    class Captured(Exception):
        pass

    def stub(*args, **kwargs):
        raise Captured(kwargs.get("cfg"))

    monkeypatch.setattr(cli, name, stub)
    with pytest.raises(Captured) as info:
        main(argv)
    return info.value.args[0]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: CircuitParams(g_damp=math.nan), id="CircuitParams.g_damp"),
    pytest.param(lambda: CircuitParams(C1=math.inf), id="CircuitParams.C1"),
    pytest.param(lambda: IntegratorConfig(t_end=math.nan), id="IntegratorConfig.t_end"),
    pytest.param(lambda: MismatchModel(sigma_C=math.nan), id="MismatchModel.sigma_C"),
    pytest.param(lambda: HandshakeConfig(T_spk=math.nan), id="HandshakeConfig.T_spk"),
    pytest.param(lambda: HandshakeConfig(ack_delays=(0.0, math.nan)),
                 id="HandshakeConfig.ack_delays"),
    pytest.param(lambda: HandshakeConfig(ack_delays=[0.0, math.nan]),
                 id="HandshakeConfig.ack_delays-list"),
    pytest.param(lambda: RingdownSetup(horizon=math.nan), id="RingdownSetup.horizon"),
    pytest.param(lambda: ChirpSetup(dt=math.nan), id="ChirpSetup.dt"),
    pytest.param(lambda: FISetup(timeout=math.inf), id="FISetup.timeout"),
    pytest.param(lambda: SweepSetup(I_max=math.nan), id="SweepSetup.I_max"),
    pytest.param(lambda: MonteCarloSetup(amplitude=math.nan), id="MonteCarloSetup.amplitude"),
    pytest.param(lambda: RingdownSetup(amplitude=np.float32(math.nan)),
                 id="RingdownSetup.amplitude-float32"),
    pytest.param(lambda: HandshakeConfig(ack_delays=(np.float32(math.inf),)),
                 id="HandshakeConfig.ack_delays-float32"),
])
def test_non_finite_values_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: IntegratorConfig(sample_stride=5.0), id="IntegratorConfig.sample_stride"),
    pytest.param(lambda: ChirpSetup(sample_stride=2.5), id="ChirpSetup.sample_stride"),
    pytest.param(lambda: ChirpSetup(sample_stride=0), id="ChirpSetup.sample_stride-zero"),
    pytest.param(lambda: ChirpSetup(dt=0.0), id="ChirpSetup.dt"),
])
def test_fractional_strides_and_non_positive_steps_rejected(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: MismatchModel(sigma_C=-1.0), id="MismatchModel.sigma_C"),
    pytest.param(lambda: CircuitParams(g_damp=-1e-12), id="CircuitParams.g_damp"),
])
def test_negative_sigmas_and_damping_are_config_errors(build):
    with pytest.raises(ConfigError, match="must be non-negative"):
        build()


# each fails in PyYAML's scanner, parser or constructor
MALFORMED_YAML = [
    pytest.param("neuron: {C1: [1", id="unclosed-flow"),
    pytest.param("neuron:\n  C1: 1.0e-12\n C2: 1.0e-12\n", id="bad-indent"),
    pytest.param("neuron:\n\tC1: 1.0e-12\n", id="tab-indent"),
    pytest.param("fi: {n_levels: 4}\nfi: {n_levels: 5}: 6\n", id="mapping-in-scalar"),
    pytest.param("chirp:\n  polarity: 'inh\n", id="unclosed-quote"),
    pytest.param("neuron: !!python/name:os.system\n", id="unsafe-tag"),
]


# each is rejected while the config loads, and never reaches the simulator
ILL_TYPED_VALUES = [
    pytest.param("handshake: {mode: 3}", r"'handshake': mode must be one of", id="mode"),
    pytest.param("handshake: {mode: foo}", r"'handshake': mode must be one of", id="mode-name"),
    pytest.param("ringdown: {polarity: 3}", r"'ringdown': polarity must be one of",
                 id="ringdown.polarity"),
    pytest.param("chirp: {polarity: 1}", r"'chirp': polarity must be one of", id="chirp.polarity"),
    pytest.param("handshake: {ack_delays: [a]}", r"'handshake.ack_delays' entries must be numbers",
                 id="ack_delays-string"),
    pytest.param("handshake: {ack_delays: [null]}",
                 r"'handshake.ack_delays' entries must be numbers", id="ack_delays-null"),
    pytest.param("montecarlo: {n_dies: 2.5}", r"n_dies must be an integer >= 2, got 2.5",
                 id="n_dies"),
    # the dies take the lane count every run set takes; the old key is no longer read
    pytest.param("montecarlo: {workers: 2}",
                 r"^unknown key 'workers' in config section 'montecarlo'$", id="workers"),
    pytest.param("montecarlo: {model: {seed: 1.5}}", r"seed must be an integer >= 0, got 1.5",
                 id="seed-fraction"),
    pytest.param("montecarlo: {model: {seed: -1}}", r"seed must be an integer >= 0, got -1",
                 id="seed-negative"),
]


def _config_fields(cls=ExperimentConfig, prefix=()):
    """(key path, default) of every field of ``cls``, each nested section before its fields."""
    for f in dataclasses.fields(cls):
        path = (*prefix, f.name)
        yield path, f.default
        if dataclasses.is_dataclass(f.default):
            yield from _config_fields(type(f.default), path)


def _document(path: tuple[str, ...], value) -> str:
    """The YAML document that sets the key at ``path`` to ``value``."""
    for key in reversed(path):
        value = {key: value}
    return yaml.safe_dump(value)


# every section and nested section, read from the config's types
SECTIONS = [pytest.param(path, id=".".join(path))
            for path, default in _config_fields() if dataclasses.is_dataclass(default)]
# a YAML true for every other field, inside a list where the field is a tuple
YAML_TRUE = [pytest.param(path, [True] if isinstance(default, tuple) else True, id=".".join(path))
             for path, default in _config_fields() if not dataclasses.is_dataclass(default)]
# every field that takes a number: its default is a number, or None (I_n0_alpha)
NUMBERS = [pytest.param(path, id=".".join(path)) for path, default in _config_fields()
           if default is None or type(default) in (int, float)]


# (owning type, field, True) for every numeric field of every section type, nested ones
# included; a tuple field gets a tuple holding True
_DEFAULTS = dict(_config_fields())
LIBRARY_TRUE = [
    pytest.param(type(_DEFAULTS[path[:-1]]), path[-1],
                 (True,) if isinstance(default, tuple) else True, id=".".join(path))
    for path, default in _DEFAULTS.items()
    if len(path) > 1 and not dataclasses.is_dataclass(default) and not isinstance(default, Enum)
]


@pytest.mark.parametrize("cls, name, value", LIBRARY_TRUE)
def test_constructors_reject_booleans(cls, name, value):
    # a bool passes every range check as 0 or 1 (CircuitParams(C1=True) was 1 F)
    with pytest.raises(ConfigError, match=f"{name} must be a number, not a boolean"):
        cls(**{name: value})


@pytest.mark.parametrize("build", [
    pytest.param(lambda: CircuitParams(V_th=np.True_), id="CircuitParams.V_th"),
    pytest.param(lambda: HandshakeConfig(ack_delays=(0.0, np.False_)),
                 id="HandshakeConfig.ack_delays"),
])
def test_constructors_reject_numpy_booleans(build):
    with pytest.raises(ConfigError, match="not a boolean"):
        build()


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config()
        assert cfg.neuron.V_th == 0.850
        assert (cfg.integrator.dt, cfg.integrator.sample_stride) == (1e-5, 5)
        assert cfg.handshake.T_spk == cfg.neuron.T_spk

    def test_sections_override_defaults(self, fast_config):
        cfg = load_config(fast_config)
        assert cfg.integrator.t_end == 0.06
        assert cfg.fi.n_levels == 4
        assert cfg.montecarlo.n_dies == 3
        assert cfg.montecarlo.model.seed == 123

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("resonator:\n  dt: 1.0e-6\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("neuron:\n  C3: 1.0e-12\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invariant_violation_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("neuron:\n  V_reset: 0.9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_dotted_overrides(self):
        cfg = load_config(None, overrides={"montecarlo.model.seed": 5,
                                           "integrator.dt": 5e-7})
        assert cfg.montecarlo.model.seed == 5
        assert cfg.integrator.dt == 5e-7

    def test_ringdown_integrator_overrides_field_by_field(self, tmp_path):
        path = tmp_path / "steps.yaml"
        path.write_text("integrator: {sample_stride: 25, t_end: 0.06}\n")
        # the overrides that `--dt 2e-6` applies
        overrides = {"integrator.dt": 2e-6, "ringdown.integrator.dt": 2e-6, "chirp.dt": 2e-6}
        rd = load_config(path, overrides).ringdown.integrator
        assert (rd.dt, rd.t_end, rd.sample_stride) == (2e-6, 0.06, 25)

    def test_non_mapping_ringdown_integrator_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("ringdown:\n  integrator: 5\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_empty_sections_load_as_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("".join(f"{f.name}:\n" for f in dataclasses.fields(ExperimentConfig)))
        assert load_config(path) == load_config()

    def test_effective_dump_round_trips(self, tmp_path):
        cfg = load_config()
        path = tmp_path / "eff.yaml"
        dump_effective_config(cfg, path)
        again = load_config(path)
        assert again == cfg

    @pytest.mark.parametrize("text", MALFORMED_YAML)
    def test_malformed_yaml_names_line_and_column(self, text, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        fault = r"malformed YAML in .*bad\.yaml: .* at line \d+, column \d+$"
        with pytest.raises(ConfigError, match=fault):
            load_config(path)

    def test_invalid_utf8_is_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"chirp: {polarity: \xc3\x28}\n")
        with pytest.raises(ConfigError, match="malformed YAML"):
            load_config(path)

    @pytest.mark.parametrize("doc, fault", ILL_TYPED_VALUES)
    def test_ill_typed_values_rejected(self, doc, fault, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(doc + "\n")
        with pytest.raises(ConfigError, match=fault):
            load_config(path)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: RingdownSetup(polarity="inh"), id="RingdownSetup"),
        pytest.param(lambda: ChirpSetup(polarity=1), id="ChirpSetup"),
    ])
    def test_polarity_must_be_a_polarity(self, build):
        with pytest.raises(ConfigError, match=r"polarity must be one of \['exc', 'inh'\]"):
            build()

    @pytest.mark.parametrize("path, value", YAML_TRUE)
    def test_yaml_booleans_rejected(self, path, value, tmp_path):
        doc = tmp_path / "bool.yaml"
        doc.write_text(_document(path, value))
        with pytest.raises(ConfigError, match=re.escape(f"'{'.'.join(path)}' takes no boolean")):
            load_config(doc)

    @pytest.mark.parametrize("path", NUMBERS)
    def test_yaml_exponents_without_a_point_rejected(self, path, tmp_path):
        # YAML 1.1 reads 5e-1 as a string
        doc = tmp_path / "exponent.yaml"
        doc.write_text(_document(path, "5e-1"))
        assert "5e-1\n" in doc.read_text()  # written plain, as a user would write it
        fault = f"'{'.'.join(path)}' takes a number, got the string '5e-1'; "
        with pytest.raises(ConfigError, match=re.escape(fault) + ".*write 5\\.0e-1"):
            load_config(doc)

    @pytest.mark.parametrize("path", SECTIONS)
    def test_scalar_sections_rejected(self, path, tmp_path):
        doc = tmp_path / "scalar.yaml"
        doc.write_text(_document(path, 5))
        with pytest.raises(ConfigError, match=f"^config section '{re.escape('.'.join(path))}' "
                                              "must be a mapping$"):
            load_config(doc)

    def test_negative_seed_override_rejected(self):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
            load_config(None, overrides={"montecarlo.model.seed": -1})


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestLibyaml:
    """libyaml parses and emits; the Python resolver, constructor and representer decide."""

    DOCUMENTS = [FAST_CONFIG, "neuron: {C1: 1.2e-12, V_th: .85}\nfi: {spikes_per_point: 0x10}\n",
                 "chirp:\n  polarity: INH\n  f_start: 1.0e+2\n  f_end: 300\nmontecarlo: {}\n"]
    # YAML 1.1 corners: 1e2, -.NaN and 0o17 are strings, 017 is octal, yes a bool
    SCALARS = ("a: [1e2, 1.0e+2, .inf, -.NaN, 0o17, 017, 0x1f, 1_000]\n"
               "b: [yes, No, ~, '', 2001-12-14]\n")

    def test_config_uses_the_c_classes(self):
        assert (config._Loader, config._Dumper) == (yaml.CSafeLoader, yaml.CSafeDumper)

    @pytest.mark.parametrize("text", [*DOCUMENTS, SCALARS])
    def test_c_and_python_loaders_agree(self, text):
        c_value = yaml.load(text, Loader=yaml.CSafeLoader)
        py_value = yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(c_value) == repr(py_value)  # repr: same types, and nan reads alike

    @pytest.mark.parametrize("text", DOCUMENTS)
    def test_c_and_python_dumpers_agree(self, text, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        plain = _plain(load_config(path))
        c_text, py_text = (yaml.dump(plain, Dumper=d, sort_keys=True, default_flow_style=False)
                           for d in (yaml.CSafeDumper, yaml.SafeDumper))
        assert c_text == py_text
        dump_effective_config(load_config(path), tmp_path / "eff.yaml")
        assert (tmp_path / "eff.yaml").read_text() == py_text


TRACE_HEADER = "t_s,U_V,V_V,I_in_A,clamped,overflow"

# every file each subcommand writes on FAST_CONFIG, with the header line of each CSV
OUTDIR_CONTRACT = {
    ("ringdown",): {
        "ringdown_trace.csv": TRACE_HEADER,
        "ringdown_events.csv": "index,t_req_s,t_release_s",
        "ringdown_metrics.json": None,
    },
    ("fi",): {"fi_curve.csv": "level_V,rate_Hz,rate_std_Hz"},
    ("chirp",): {
        "chirp_raster.csv": "index,t_req_s,t_release_s,block_freq_Hz",
        "chirp_trace.csv": TRACE_HEADER,
    },
    ("chirp", "--full-map"): {
        "chirp_raster.csv": "index,t_req_s,t_release_s,block_freq_Hz",
        "chirp_trace.csv": TRACE_HEADER,
        "tuning_map.csv": "bias_A\\freq_Hz,180,216.333076528,260",
        "tuning_map.json": None,
    },
    ("sweep-bias",): {
        "sweep_bias.csv": "I_A,f_res_Hz,f_analytic_Hz,flags",
        "sweep_fit.json": None,
    },
    ("montecarlo",): {
        "population.json": None,
        "dies.csv": "die,baseline_U,baseline_V,first_peak_U,first_peak_V,f_res,q_factor,flags",
    },
}


def _cell(v) -> str:
    """The CSV cell rule: strings as they are, floats to .12g, anything else as int(v)."""
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(int(v))


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_csv_cells = st.one_of(
    st.text(st.sampled_from("ab%,;.-e 0"), max_size=5),
    _any_float,
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    _any_float.map(np.float64),
)


# one type per cell of a run of rows; the run's rows draw new values of those types
_typed_cells = {
    str: st.text(st.sampled_from("ab%,;.-e 0"), max_size=5),
    float: _any_float,
    np.float64: _any_float.map(np.float64),
    bool: st.booleans(),
    np.bool_: st.booleans().map(np.bool_),
    int: st.integers(),
    np.int64: st.integers(-2**63, 2**63 - 1).map(np.int64),
}
_csv_runs = st.lists(st.sampled_from(list(_typed_cells)), max_size=4).flatmap(
    lambda types: st.lists(st.tuples(*(_typed_cells[t] for t in types)), min_size=1,
                           max_size=9))


def _csv_text(header, rows) -> str:
    """The file of ``header`` and ``rows``, each row formatted on its own by the cell rule."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


class TestWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(path, ("x", 2.0), [(1.0 / 3.0, True), (np.float64(2.5e-12), np.bool_(False)),
                                     (np.int64(7), "a;b"), (math.nan, 12)])
        assert path.read_text() == "x,2\n0.333333333333,1\n2.5e-12,0\n7,a;b\nnan,12\n"

    @given(st.lists(st.lists(_csv_cells, max_size=6), max_size=6))
    @example([["50%,x", -0.0, 5e-324, math.nan, -math.inf, math.inf],
              [True, np.bool_(True), np.int64(-2**63), np.float64(1e-310), "%d%s%%", ","]])
    @settings(max_examples=60, deadline=None)
    def test_csv_rows_follow_the_cell_rule(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.csv"
            write_csv(path, ("h%", "h,"), rows)
            text = path.read_bytes().decode("ascii")
        assert text == _csv_text(("h%", "h,"), rows)

    @given(st.lists(_csv_runs, max_size=5).map(lambda runs: [r for run in runs for r in run]),
           st.integers(1, 4))
    @example([(1.0, True), (np.float64(2.0), True), (3.0, 1), (4.0, np.bool_(False))], 2)
    @example([(1.0, "a"), (), (2.0, "b"), (), (), (3.0, "c")], 3)
    @example([(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)], 4)  # as many float cells as 3 rows of 2
    @example([], 1)
    @settings(max_examples=80, deadline=None)
    def test_runs_of_rows_follow_the_cell_rule(self, rows, cap):
        # a small cap splits the drawn runs of same-typed rows, like long files at the real cap
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_RUN_ROWS", cap):
            path = Path(tmp) / "runs.csv"
            write_csv(path, ("h%", "h,"), rows)
            text = path.read_bytes().decode("ascii")
        assert text == _csv_text(("h%", "h,"), rows)

    @pytest.mark.parametrize("n", [cli._RUN_ROWS - 1, cli._RUN_ROWS, 2 * cli._RUN_ROWS + 3])
    def test_runs_longer_than_the_cap(self, tmp_path, n):
        rows = [(i / 7.0, np.float64(i) * 1e-9, i % 2 == 0, np.int64(-i)) for i in range(n)]
        rows[n // 2] = (0.5, 0.25, True, 3)  # a float and an int where numpy scalars ran
        path = tmp_path / "long.csv"
        write_csv(path, ("a", "b", "c", "d"), iter(rows))
        assert path.read_text() == _csv_text(("a", "b", "c", "d"), rows)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ("x", "y%"), iter(()))
        assert path.read_text() == "x,y%\n"

    def test_json_layout(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json(path, {"a": (1, 2.5), "b": math.nan})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": NaN\n}\n'


class TestCli:
    @pytest.mark.parametrize("argv", list(OUTDIR_CONTRACT), ids=" ".join)
    def test_outdir_contract(self, argv, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main([*argv, "--config", str(fast_config), "--outdir", str(out)]) == 0
        files = OUTDIR_CONTRACT[argv]
        assert sorted(f.name for f in out.iterdir()) == sorted([*files, "effective_config.yaml"])
        for name, header in files.items():
            if header is not None:
                assert (out / name).read_text().split("\n", 1)[0] == header

    def test_ringdown_writes_outputs(self, fast_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["ringdown", "--config", str(fast_config), "--outdir", str(out)])
        assert rc == 0
        for name in ("ringdown_trace.csv", "ringdown_metrics.json",
                     "ringdown_events.csv", "effective_config.yaml"):
            assert (out / name).exists()
        metrics = json.loads((out / "ringdown_metrics.json").read_text())
        assert abs(metrics["baseline_U"] - 0.7236) < 5e-3

    def test_fi_row_count_matches_levels(self, fast_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["fi", "--config", str(fast_config), "--outdir", str(out)])
        assert rc == 0
        lines = (out / "fi_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "level_V,rate_Hz,rate_std_Hz"
        assert len(lines) == 1 + 4

    def test_chirp_raster_and_map(self, fast_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["chirp", "--config", str(fast_config), "--outdir", str(out),
                   "--full-map"])
        assert rc == 0
        assert (out / "chirp_raster.csv").exists()
        assert (out / "tuning_map.csv").exists()
        payload = json.loads((out / "tuning_map.json").read_text())
        assert len(payload["bias_levels_A"]) == 2
        assert len(payload["frequencies_Hz"]) == 3

    def test_sweep_bias_fit_report(self, fast_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep-bias", "--config", str(fast_config), "--outdir", str(out)])
        assert rc == 0
        fit = json.loads((out / "sweep_fit.json").read_text())
        assert fit["r_squared"] > 0.99
        lines = (out / "sweep_bias.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_montecarlo_outputs(self, fast_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["montecarlo", "--config", str(fast_config), "--outdir", str(out)])
        assert rc == 0
        pop = json.loads((out / "population.json").read_text())
        assert pop["n_dies"] == 3

    def test_fi_follows_the_integrator_section(self, fast_config, tmp_path, monkeypatch):
        argv = ["fi", "--config", str(fast_config), "--outdir", str(tmp_path / "o")]
        cfg = _captured_cfg(monkeypatch, "fi_curve", argv)
        assert (cfg.dt, cfg.sample_stride) == (2e-6, 25)

    def test_full_map_follows_the_chirp_step(self, tmp_path, monkeypatch):
        doc = yaml.safe_load(FAST_CONFIG)
        doc["chirp"].update(dt=2e-6, sample_stride=25)
        path = tmp_path / "chirp.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = ["chirp", "--config", str(path), "--outdir", str(tmp_path / "o"), "--full-map"]
        cfg = _captured_cfg(monkeypatch, "tuning_map", argv)
        loaded = load_config(path)
        prog = loaded.chirp.program(v_limit=loaded.neuron.V_DD)
        assert cfg == loaded.chirp.integrator_config(prog)
        assert (cfg.dt, cfg.sample_stride) == (2e-6, 25)

    def test_exhausted_scripted_acks_exit_code(self, tmp_path, capsys):
        path = tmp_path / "acks.yaml"
        path.write_text(FAST_CONFIG + "handshake: {mode: scripted_ack, ack_delays: [0.0]}\n")
        rc = main(["fi", "--config", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("protocol error: scripted acknowledge list exhausted")
        assert err.count("\n") == 1

    def test_hold_below_the_time_resolution_exit_code(self, tmp_path, capsys):
        # a release on its crossing's own time would repeat a trace timestamp
        path = tmp_path / "hold.yaml"
        path.write_text(FAST_CONFIG + "handshake: {T_spk: 1.0e-300}\n")
        rc = main(["fi", "--config", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: T_spk=1e-300 is below the time resolution")
        assert err.count("\n") == 1

    def test_undefined_metric_exit_code(self, fast_config, tmp_path, monkeypatch, capsys):
        def no_peaks(*args, **kwargs):
            raise UndefinedMetricError("no local maximum after the stimulus")

        monkeypatch.setattr(cli, "run_ringdown", no_peaks)
        rc = main(["ringdown", "--config", str(fast_config), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "undefined metric: no local maximum after the stimulus\n"

    def test_sweep_bias_takes_no_dt(self, tmp_path, capsys):
        # each sweep point sets its own step, so a --dt would only be written into
        # effective_config.yaml as if the run had used it
        with pytest.raises(SystemExit) as info:
            main(["sweep-bias", "--dt", "1e-6", "--outdir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["ringdown", "fi", "chirp", "sweep-bias"])
    def test_only_montecarlo_takes_a_seed(self, command, tmp_path, capsys):
        # no other subcommand samples, so a --seed would only be written into
        # effective_config.yaml as if the run had used it
        with pytest.raises(SystemExit) as info:
            main([command, "--seed", "5", "--outdir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_with_one_point_exit_code(self, tmp_path, capsys):
        doc = yaml.safe_load(FAST_CONFIG)
        doc["sweep"]["n_points"] = 1
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["sweep-bias", "--config", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("undefined metric: a line fit needs at least 2 finite points, got 1")
        assert err.count("\n") == 1

    def test_exhausted_mismatch_resampling_exit_code(self, tmp_path, capsys):
        # I_IV below the alpha-branch process current admits no valid die
        path = tmp_path / "mc.yaml"
        path.write_text(
            "neuron: {I_IV: 4.0e-14}\n"
            "montecarlo:\n  n_dies: 2\n  model: {sigma_ln_In0_alpha: 0.0, sigma_ln_In0_beta: 0.0,"
            " sigma_C: 0.0, sigma_I_bias: 0.0, sigma_ln_g_damp: 0.0}\n"
        )
        rc = main(["montecarlo", "--config", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: die 0: no valid parameter draw in 1000 attempts")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["ringdown", "fi", "chirp"])
    def test_invalid_operating_point_exit_code(self, command, tmp_path, capsys):
        # I_IV below the alpha-branch process current has no equilibrium
        path = tmp_path / "op.yaml"
        path.write_text(FAST_CONFIG + "neuron: {I_IV: 4.0e-14}\n")
        rc = main([command, "--config", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: I_IV=4e-14 must exceed the alpha-branch I_n0")
        assert err.count("\n") == 1

    def test_reversed_fi_levels_exit_code(self, tmp_path, capsys):
        path = tmp_path / "fi.yaml"
        path.write_text("fi: {level_min: 0.5, level_max: 0.4}\n")
        rc = main(["fi", "--config", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid config section 'fi': fi levels must increase")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, doc", [
        ("fi", "fi: {n_levels: -1}"),
        ("fi", "fi: {spikes_per_point: 0}"),
        ("sweep-bias", "sweep: {n_points: -1}"),
        ("sweep-bias", "sweep: {I_min: -1.0e-11}"),
        ("chirp", "chirp: {n_bias: -1}"),
        ("chirp", "chirp: {bias_min: -1.0e-10}"),
        ("chirp", "chirp: {n_bias: 2, bias_min: 1.3e-10, bias_max: 1.2e-10}"),
        # bounds a few ulps apart: the computed levels repeat or reorder
        ("fi", "fi: {level_min: 0.5, level_max: 0.5000000000000001, n_levels: 26}"),
        ("chirp", "chirp: {n_bias: 3, bias_min: 1.05e-10, bias_max: 1.0500000000000001e-10}"),
        ("ringdown", "ringdown: {settle_window: -1.0}"),
        ("ringdown", "ringdown: {settle_window: 0.5}"),  # longer than the 0.3 s horizon
    ])
    def test_out_of_range_setup_exit_code(self, command, doc, tmp_path, capsys):
        path = tmp_path / "setup.yaml"
        path.write_text(doc + "\n")
        argv = [command, "--config", str(path), "--outdir", str(tmp_path / "o")]
        rc = main(argv + (["--full-map"] if command == "chirp" else []))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid config section '{doc.split(':')[0]}'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, doc", [
        ("fi", "fi: {V_th: 0.7, n_levels: 2, timeout: 0.02}"),
        ("chirp", "chirp: {vth_min: 0.5, n_bias: 2, n_freqs: 2, spikes_per_freq: 2, "
                  "f_start: 200.0}"),
    ])
    def test_threshold_below_reset_exit_code(self, command, doc, tmp_path, capsys):
        # the fi threshold and the tuning map's threshold law replace the neuron's V_th
        path = tmp_path / "vth.yaml"
        path.write_text(doc + "\n")
        argv = [command, "--config", str(path), "--outdir", str(tmp_path / "o")]
        rc = main(argv + (["--full-map"] if command == "chirp" else []))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: voltage ordering 0 < V_reset < V_th < V_DD violated")
        assert err.count("\n") == 1

    def test_montecarlo_follows_the_handshake_section(self, tmp_path, capsys):
        # the dies spike again and again at this threshold: a self-acknowledged
        # run completes, and a scripted list of one acknowledge runs out at the
        # second spike.  A run that fired has no metric that the hold length
        # moves, so the protocol shows in how the run ends
        base = ("neuron: {V_th: 0.80}\nringdown: {horizon: 0.06, settle_window: 0.012}\n"
                "montecarlo: {n_dies: 3, amplitude: 0.5}\n")
        codes = []
        handshakes = ("{T_spk: 6.0e-05}", "{mode: scripted_ack, ack_delays: [0.0]}")
        for i, handshake in enumerate(handshakes):
            path = tmp_path / f"mc_{i}.yaml"
            path.write_text(base + f"handshake: {handshake}\n")
            out = tmp_path / str(i)
            codes.append(main(["montecarlo", "--config", str(path), "--outdir", str(out)]))
        assert codes == [0, 1]
        assert capsys.readouterr().err.startswith(
            "protocol error: scripted acknowledge list exhausted at event 1")

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("neuron:\n  V_reset: 0.9\n")
        rc = main(["ringdown", "--config", str(bad), "--outdir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("text", MALFORMED_YAML)
    @pytest.mark.parametrize("command", ["ringdown", "fi"])
    def test_malformed_yaml_exit_code(self, command, text, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        rc = main([command, "--config", str(bad), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed YAML in ")
        assert err.count("\n") == 1

    def test_exhausted_scripted_acks_fail_alike_on_any_thread_count(self, tmp_path, capsys,
                                                                      monkeypatch):
        # the first of the four F-I levels is silent, so the list runs out in a later lane
        path = tmp_path / "acks.yaml"
        path.write_text(FAST_CONFIG + "handshake: {mode: scripted_ack, ack_delays: [0.0, 0.0]}\n")
        seen = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            rc = main(["fi", "--config", str(path), "--outdir", str(tmp_path / f"o{cpus}")])
            seen.append((rc, capsys.readouterr().err))
        assert seen[0] == seen[1]
        assert seen[0][0] == 1
        assert seen[0][1].startswith(
            "protocol error: scripted acknowledge list exhausted at event 2")

    @pytest.mark.parametrize("handshake", [
        pytest.param({}, id="self-ack"),
        pytest.param({"mode": "scripted_ack", "ack_delays": [20e-6 * (i % 4) for i in range(40)]},
                     id="scripted-ack"),
    ])
    def test_full_map_outdir_does_not_depend_on_the_thread_count(self, handshake, tmp_path,
                                                                  on_cpus):
        path = tmp_path / "chirp.yaml"
        path.write_text(yaml.safe_dump({**yaml.safe_load(FAST_CONFIG), "handshake": handshake}))
        outs = []
        for cpus in (1, 4):
            outs.append(tmp_path / f"o{cpus}")
            argv = ["chirp", "--config", str(path), "--outdir", str(outs[-1]), "--full-map"]
            assert on_cpus(cpus, lambda: main(argv)) == 0
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        assert "tuning_map.csv" in names
        for name in names:
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name

    def test_raster_runs_beside_the_map_rows(self, fast_config, tmp_path, monkeypatch, on_cpus):
        # the raster and the first tuning-map row each wait until the other has started
        barrier = threading.Barrier(2, timeout=30)
        first_bias = load_config(fast_config).chirp.bias_levels()[0]
        run_chirp, tuning_map = cli.run_chirp, cli.tuning_map

        def raster(*args, **kwargs):
            barrier.wait()
            return run_chirp(*args, **kwargs)

        def row(neuron, bias_levels, *args, **kwargs):
            if bias_levels[0] == first_bias:
                barrier.wait()
            return tuning_map(neuron, bias_levels, *args, **kwargs)

        monkeypatch.setattr(cli, "run_chirp", raster)
        monkeypatch.setattr(cli, "tuning_map", row)
        argv = ["chirp", "--config", str(fast_config), "--outdir", str(tmp_path / "o"),
                "--full-map"]
        assert on_cpus(2, lambda: main(argv)) == 0

    def test_exhausted_scripted_acks_in_a_map_row_fail_alike(self, tmp_path, capsys, on_cpus):
        # at V_th 0.9 the raster spikes twice and the second row three times, so the two
        # acknowledges run out in a row's lane, after the raster has run
        path = tmp_path / "acks.yaml"
        path.write_text(FAST_CONFIG + "neuron: {V_th: 0.9}\n"
                        "handshake: {mode: scripted_ack, ack_delays: [0.0, 0.0]}\n")
        seen = []
        for cpus in (1, 4):
            out = tmp_path / f"o{cpus}"
            argv = ["chirp", "--config", str(path), "--outdir", str(out), "--full-map"]
            seen.append((on_cpus(cpus, lambda: main(argv)), capsys.readouterr().err))
            assert list(out.iterdir()) == []  # files are written once every lane has returned
        assert seen[0] == seen[1]
        assert seen[0][0] == 1
        assert seen[0][1].startswith(
            "protocol error: scripted acknowledge list exhausted at event 2")
        assert seen[0][1].count("\n") == 1

    @pytest.mark.parametrize("command, doc, argv", [
        pytest.param("fi", "handshake: {mode: 3}", [], id="mode"),
        pytest.param("ringdown", "ringdown: {polarity: 3}", [], id="ringdown.polarity"),
        pytest.param("chirp", "chirp: {polarity: 1}", ["--full-map"], id="chirp.polarity"),
        pytest.param("fi", "handshake: {ack_delays: [null]}", [], id="ack_delays"),
        pytest.param("montecarlo", "montecarlo: {n_dies: 2.5}", [], id="n_dies"),
        pytest.param("montecarlo", "montecarlo: {workers: 2}", [], id="workers"),
        pytest.param("montecarlo", "", ["--seed", "-1"], id="seed"),
        pytest.param("fi", "fi: {n_levels: true}", [], id="n_levels-boolean"),
        pytest.param("fi", "handshake: 5", [], id="handshake-scalar"),
        pytest.param("ringdown", "ringdown: {integrator: 5}", [], id="ringdown.integrator-scalar"),
    ])
    def test_ill_typed_values_exit_code(self, command, doc, argv, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(doc + "\n")
        outdir = tmp_path / "o"
        rc = main([command, "--config", str(path), "--outdir", str(outdir), *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert not (outdir / "effective_config.yaml").exists()

    def test_seed_override_changes_population(self, fast_config, tmp_path):
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        main(["montecarlo", "--config", str(fast_config), "--outdir", str(out1)])
        main(["montecarlo", "--config", str(fast_config), "--outdir", str(out2),
              "--seed", "999"])
        main(["montecarlo", "--config", str(fast_config), "--outdir", str(out3)])
        assert not filecmp.cmp(out1 / "dies.csv", out2 / "dies.csv", shallow=False)
        assert filecmp.cmp(out1 / "dies.csv", out3 / "dies.csv", shallow=False)

    def test_repeated_runs_byte_identical(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["ringdown", "--config", str(fast_config), "--outdir", str(out1)])
        main(["ringdown", "--config", str(fast_config), "--outdir", str(out2)])
        for name in ("ringdown_trace.csv", "ringdown_metrics.json",
                     "effective_config.yaml"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False)


class TestParserReuse:
    """One parser serves every ``main()`` call of a process; no call leaves a mark on it."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_dt_override_does_not_carry_over(self, tmp_path):
        main(["ringdown", "--dt", "2e-5", "--outdir", str(tmp_path / "a")])
        main(["ringdown", "--outdir", str(tmp_path / "b")])
        a, b = (yaml.safe_load((tmp_path / o / "effective_config.yaml").read_text())
                for o in ("a", "b"))
        assert a["ringdown"]["integrator"]["dt"] == a["chirp"]["dt"] == 2e-5
        default = IntegratorConfig().dt
        assert b["integrator"]["dt"] == b["ringdown"]["integrator"]["dt"] == default
        assert b["chirp"]["dt"] == default

    def test_full_map_does_not_carry_over(self, fast_config, tmp_path):
        for name, extra in (("a", ["--full-map"]), ("b", [])):
            argv = ["chirp", "--config", str(fast_config), "--outdir", str(tmp_path / name)]
            assert main([*argv, *extra]) == 0
        assert (tmp_path / "a" / "tuning_map.csv").exists()
        assert sorted(f.name for f in (tmp_path / "b").iterdir()) == [
            "chirp_raster.csv", "chirp_trace.csv", "effective_config.yaml"]

    def test_a_rejected_argv_leaves_the_next_call_alike(self, fast_config, tmp_path, capsys):
        def chirp(outdir, *extra):
            return main(["chirp", "--config", str(fast_config), "--outdir", str(outdir), *extra])

        assert chirp(tmp_path / "a") == 0
        with pytest.raises(SystemExit) as info:  # argparse reads --full-map, then rejects
            chirp(tmp_path / "x", "--full-map", "--dt", "2e-6", "--bogus")
        assert info.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert chirp(tmp_path / "b") == 0
        cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        assert cmp.left_only == cmp.right_only == []
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", cmp.common,
                                                   shallow=False)
        assert "chirp_trace.csv" in match and mismatch == errors == []
        assert not (tmp_path / "x").exists()


_DEFAULT_NEURON = CircuitParams()
# every field; I_n0_alpha, None by default, is drawn around the shared I_n0
_NEURON_FIELDS = {
    f.name: getattr(_DEFAULT_NEURON, f.name) or _DEFAULT_NEURON.I_n0
    for f in dataclasses.fields(CircuitParams)
}


def _around(default: float):
    """Up to four decades either side of ``default``, or an invalid 0 or negative value."""
    return st.one_of(
        st.floats(-4.0, 4.0).map(lambda e: default * 10.0**e),
        st.sampled_from([0.0, -default]),
    )


_neuron_sections = st.lists(
    st.sampled_from(sorted(_NEURON_FIELDS)), max_size=3, unique=True
).flatmap(lambda names: st.fixed_dictionaries({n: _around(_NEURON_FIELDS[n]) for n in names}))


@given(_neuron_sections)
@example({"I_IV": 4.0e-14})  # no equilibrium: derive_params rejects it
@example({"U_T": 4.0e-4, "C1": 1.2e-11, "C2": 1.2e-11})  # the synapse exponential overflows
@example({"U_T": 0.2585})  # the equilibrium U* = 7.2 V lies outside the guard window
@settings(max_examples=30, deadline=None)
def test_any_neuron_section_ends_in_a_documented_exit_code(neuron):
    """A short ringdown on any neuron section exits 0-3 with at most one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "neuron.yaml"
        doc = {"neuron": neuron, "ringdown": {"horizon": 0.02, "settle_window": 0.005}}
        path.write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["ringdown", "--config", str(path), "--outdir", str(Path(tmp) / "o")])
    assert rc in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1


def _shorter(default: float):
    """Up to four decades below ``default``, or an invalid 0 or negative value.

    Used for the fields whose growth lengthens a run, so every example stays short.
    """
    return st.one_of(
        st.floats(-4.0, 0.0).map(lambda e: default * 10.0**e),
        st.sampled_from([0.0, -default]),
    )


def _higher(default: float):
    """Up to four decades above ``default``, or 0 or negative.

    Used for chirp frequencies, and for step sizes: a finer step than
    ``default`` would ask for a huge trace buffer.
    """
    return st.one_of(
        st.floats(0.0, 4.0).map(lambda e: default * 10.0**e),
        st.sampled_from([0.0, -default]),
    )


_STRIDES = st.one_of(st.integers(-1, 10**9), st.sampled_from([5.0, 2.5]))
_SHORT_FI = {"fi": {"n_levels": 2, "level_min": 0.45, "level_max": 0.5,
                    "spikes_per_point": 3, "timeout": 0.02}}

# section -> (command, base document that keeps the run short, strategies of the
# section's drawn fields)
_SETUP_SECTIONS = {
    "ringdown": ("ringdown", {"ringdown": {"horizon": 0.02, "settle_window": 0.005}}, {
        "t0": _around(1e-3), "width": _around(100e-6), "amplitude": _around(0.5),
        "horizon": _shorter(0.02), "settle_window": _around(0.005),
    }),
    "fi": ("fi", _SHORT_FI, {
        "n_levels": st.integers(-1, 3), "spikes_per_point": st.integers(-1, 4),
        "level_min": _around(0.45), "level_max": _around(0.5), "V_th": _around(0.84),
        "timeout": _shorter(0.02),
    }),
    "integrator": ("fi", _SHORT_FI, {
        "dt": _higher(1e-7), "sample_stride": _STRIDES, "crossing_tol": _around(1e-9),
    }),
    "chirp": ("chirp", {"chirp": {"n_freqs": 2, "spikes_per_freq": 2, "f_start": 200.0,
                                  "f_end": 260.0, "n_bias": 1}}, {
        "n_freqs": st.integers(-1, 3), "spikes_per_freq": st.integers(-1, 3),
        "n_bias": st.integers(-1, 2), "f_start": _higher(200.0), "f_end": _higher(260.0),
        "pulse_width": _around(100e-6), "amplitude": _around(0.5),
        "bias_min": _around(105e-12), "bias_max": _around(162e-12),
        "vth_min": _around(0.84), "vth_max": _around(0.9),
        "vth_anchor_min": _around(105e-12), "vth_anchor_max": _around(255e-12),
        "dt": _higher(1e-7), "sample_stride": _STRIDES,
    }),
    "sweep": ("sweep-bias", {"sweep": {"n_points": 1}}, {
        "n_points": st.integers(-1, 2), "I_min": _around(10e-12), "I_max": _around(2.51e-9),
        "amplitude": _around(0.4), "width": _around(100e-6),
    }),
    "montecarlo": ("montecarlo", {"montecarlo": {"n_dies": 2},
                                  "ringdown": {"horizon": 0.02, "settle_window": 0.005}}, {
        "n_dies": st.integers(-1, 3), "amplitude": _around(0.4),
    }),
}


def _setup_section(name: str):
    fields = _SETUP_SECTIONS[name][2]
    return st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({n: fields[n] for n in names})
    ).map(lambda drawn: (name, drawn))


@given(st.sampled_from(sorted(_SETUP_SECTIONS)).flatmap(_setup_section))
@example(("fi", {"n_levels": -1}))
@example(("fi", {"spikes_per_point": 0}))
@example(("sweep", {"n_points": -1}))
@example(("sweep", {"I_min": -1e-11}))
@example(("chirp", {"n_bias": -1}))
@example(("chirp", {"bias_min": -1e-10}))
@example(("chirp", {"n_bias": 2, "bias_min": 1.3e-10, "bias_max": 1.2e-10}))
@example(("fi", {"n_levels": 26, "level_min": 0.5, "level_max": 0.5000000000000001}))
@example(("chirp", {"n_bias": 3, "bias_min": 1.05e-10, "bias_max": 1.0500000000000001e-10}))
@example(("ringdown", {"settle_window": 0.5}))
@example(("integrator", {"sample_stride": 5.0}))
@example(("chirp", {"sample_stride": 2.5}))
# YAML 1.1 reads an exponent with no decimal point as a string
@example(("ringdown", {"amplitude": "4e-1"}))
@example(("chirp", {"amplitude": "5e-1"}))
@example(("sweep", {"amplitude": "4e-1"}))
@example(("montecarlo", {"amplitude": "4e-1", "n_dies": 2}))
@example(("integrator", {"dt": "5e-6"}))
@settings(max_examples=40, deadline=None)
def test_any_setup_section_ends_in_a_documented_exit_code(drawn):
    """A short run on any ringdown, fi, integrator, chirp, sweep or montecarlo section exits
    0-3 with <= 1 stderr line."""
    name, fields = drawn
    command, base, _ = _SETUP_SECTIONS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "setup.yaml"
        path.write_text(yaml.safe_dump({**base, name: {**base.get(name, {}), **fields}}))
        argv = [command, "--config", str(path), "--outdir", str(Path(tmp) / "o")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + (["--full-map"] if command == "chirp" else []))
    assert rc in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
