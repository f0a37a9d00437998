"""Config parsing/validation, effective-config provenance, CLI surfaces."""

import contextlib
import dataclasses
import filecmp
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfneuron import CircuitParams, HandshakeConfig, IntegratorConfig, MismatchModel, cli
from rfneuron.cli import main, write_csv, write_json
from rfneuron.config import (
    ExperimentConfig, MonteCarloSetup, dump_effective_config, load_config,
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
    pytest.param(lambda: RingdownSetup(horizon=math.nan), id="RingdownSetup.horizon"),
    pytest.param(lambda: ChirpSetup(dt=math.nan), id="ChirpSetup.dt"),
    pytest.param(lambda: FISetup(timeout=math.inf), id="FISetup.timeout"),
    pytest.param(lambda: SweepSetup(I_max=math.nan), id="SweepSetup.I_max"),
    pytest.param(lambda: MonteCarloSetup(amplitude=math.nan), id="MonteCarloSetup.amplitude"),
])
def test_non_finite_values_rejected(build):
    with pytest.raises(ValueError, match="finite"):
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


class TestWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(path, ("x", 2.0), [(1.0 / 3.0, True), (np.float64(2.5e-12), np.bool_(False)),
                                     (np.int64(7), "a;b"), (math.nan, 12)])
        assert path.read_text() == "x,2\n0.333333333333,1\n2.5e-12,0\n7,a;b\nnan,12\n"

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

    def test_undefined_metric_exit_code(self, fast_config, tmp_path, monkeypatch, capsys):
        def no_peaks(*args, **kwargs):
            raise UndefinedMetricError("no local maximum after the stimulus")

        monkeypatch.setattr(cli, "run_ringdown", no_peaks)
        rc = main(["ringdown", "--config", str(fast_config), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "undefined metric: no local maximum after the stimulus\n"

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

    def test_montecarlo_follows_the_handshake_section(self, tmp_path):
        # the dies spike at this threshold, so the hold length shows in their metrics
        base = ("neuron: {V_th: 0.80}\nringdown: {horizon: 0.06, settle_window: 0.012}\n"
                "montecarlo: {n_dies: 3, amplitude: 0.5}\n")
        outs = []
        for T_spk in ("6.0e-05", "3.0e-03"):
            path = tmp_path / f"mc_{T_spk}.yaml"
            path.write_text(base + f"handshake: {{T_spk: {T_spk}}}\n")
            outs.append(tmp_path / T_spk)
            rc = main(["montecarlo", "--config", str(path), "--outdir", str(outs[-1])])
            assert rc == 0
        assert not filecmp.cmp(outs[0] / "dies.csv", outs[1] / "dies.csv", shallow=False)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("neuron:\n  V_reset: 0.9\n")
        rc = main(["ringdown", "--config", str(bad), "--outdir", str(tmp_path / "o")])
        assert rc == 1

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
    """Up to four decades above ``default`` (a chirp frequency), or 0 or negative."""
    return st.one_of(
        st.floats(0.0, 4.0).map(lambda e: default * 10.0**e),
        st.sampled_from([0.0, -default]),
    )


# section -> (command, base fields that keep the run short, strategies of the drawn fields)
_SETUP_SECTIONS = {
    "ringdown": ("ringdown", {"horizon": 0.02, "settle_window": 0.005}, {
        "t0": _around(1e-3), "width": _around(100e-6), "amplitude": _around(0.5),
        "horizon": _shorter(0.02), "settle_window": _around(0.005),
    }),
    "fi": ("fi", {"n_levels": 2, "level_min": 0.45, "level_max": 0.5,
                  "spikes_per_point": 3, "timeout": 0.02}, {
        "n_levels": st.integers(-1, 3), "spikes_per_point": st.integers(-1, 4),
        "level_min": _around(0.45), "level_max": _around(0.5), "V_th": _around(0.84),
        "timeout": _shorter(0.02),
    }),
    "chirp": ("chirp", {"n_freqs": 2, "spikes_per_freq": 2, "f_start": 200.0, "f_end": 260.0,
                        "n_bias": 1}, {
        "n_freqs": st.integers(-1, 3), "spikes_per_freq": st.integers(-1, 3),
        "n_bias": st.integers(-1, 2), "f_start": _higher(200.0), "f_end": _higher(260.0),
        "pulse_width": _around(100e-6), "amplitude": _around(0.5),
        "bias_min": _around(105e-12), "bias_max": _around(162e-12),
        "vth_min": _around(0.84), "vth_max": _around(0.9),
        "vth_anchor_min": _around(105e-12), "vth_anchor_max": _around(255e-12),
    }),
    "sweep": ("sweep-bias", {"n_points": 1}, {
        "n_points": st.integers(-1, 2), "I_min": _around(10e-12), "I_max": _around(2.51e-9),
        "amplitude": _around(0.4), "width": _around(100e-6),
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
@example(("ringdown", {"settle_window": 0.5}))
@settings(max_examples=40, deadline=None)
def test_any_setup_section_ends_in_a_documented_exit_code(drawn):
    """A short run on any ringdown, fi, chirp or sweep section exits 0-3 with <= 1 stderr line."""
    name, fields = drawn
    command, base, _ = _SETUP_SECTIONS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "setup.yaml"
        path.write_text(yaml.safe_dump({name: {**base, **fields}}))
        argv = [command, "--config", str(path), "--outdir", str(Path(tmp) / "o")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + (["--full-map"] if command == "chirp" else []))
    assert rc in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
