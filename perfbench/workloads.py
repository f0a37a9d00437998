"""The benchmark's workloads: seeded inputs, the timed calls, output summaries and invariants.

Inputs are drawn from ``random.Random`` so every generated number is a
plain Python float: numpy scalars slow the integrator's hot loop, and the
benchmark must not inject that cost into workloads that do not have it.
Every CircuitParams field, and every setup field except the step size where
a workload is meant to follow the package default, is written out here, so
a recalibration of the package defaults cannot silently change a workload.

A workload's ``steps`` are the timed calls, one per unit where the calls
are separate, as (unit, thunk) pairs; their results, in order, are the
outputs.  A summary maps each unit (operating point, die or CLI subcommand) to a
JSON-able record of its outputs; ``check`` returns, per unit, the reasons
it fails the seed-independent invariants.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import traceback
from pathlib import Path

import yaml

from checkout import import_rfneuron

rf = import_rfneuron()
from rfneuron import cli, config, experiments, montecarlo  # noqa: E402

# CircuitParams at this package's calibrated operating point, field by field.
NEURON = {
    "C1": 1.2e-12, "C2": 1.2e-12, "I_n0": 47e-15, "kappa_n": 0.7, "U_T": 25.85e-3,
    "I_IU": 150e-12, "I_IV": 150e-12, "V_DD": 1.5, "V_th": 0.850, "V_reset": 0.750,
    "g_damp": 6.0e-12, "T_spk": 60e-6, "I_s0_exc": 0.5e-15, "I_s0_inh": 0.8e-15,
    "I_n0_alpha": None, "I_n0_beta": 20.5e-15,
}

MISMATCH_SIGMAS = {
    "sigma_ln_In0_alpha": 0.15, "sigma_ln_In0_beta": 0.15, "sigma_C": 0.05,
    "sigma_I_bias": 0.21, "sigma_ln_g_damp": 0.60,
}

# Inhibitory-pulse ringdown protocol; the step size stays the package default.
RINGDOWN_TIMING = {"t0": 1e-3, "width": 100e-6, "horizon": 0.3, "settle_window": 0.05}

RINGDOWN_METRICS = ("baseline_U", "baseline_V", "first_peak_U", "first_peak_V",
                    "f_res", "q_factor")


def explicit(cls, values: dict, defaulted: tuple[str, ...] = ()) -> dict:
    """``values`` after checking it names every field of ``cls`` but ``defaulted``."""
    unset = {f.name for f in dataclasses.fields(cls)} - set(values) - set(defaulted)
    if unset:
        raise RuntimeError(f"{cls.__name__} has fields the benchmark does not set: {sorted(unset)}")
    return values


def neuron(**overrides) -> "rf.CircuitParams":
    return rf.CircuitParams(**explicit(rf.CircuitParams, {**NEURON, **overrides}))


def ringdown_setup(amplitude: float) -> "rf.RingdownSetup":
    values = {**RINGDOWN_TIMING, "amplitude": amplitude, "polarity": rf.Polarity.INH}
    return rf.RingdownSetup(**explicit(rf.RingdownSetup, values, defaulted=("integrator",)))


def metrics_record(m) -> dict:
    return {**{k: float(getattr(m, k)) for k in RINGDOWN_METRICS}, "flags": list(m.flags)}


def within(x: float, ref: float, rel: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rel * abs(ref)


class Ringdown:
    """Library ringdowns at seeded operating points: straight-line stepping, no events."""

    name = "ringdown"
    n_points = 4
    workers = 1

    def inputs(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"ringdown/{seed}")
        points = []
        for _ in range(self.n_points):
            bias = rng.uniform(120e-12, 180e-12)
            amplitude = rng.uniform(0.3, 0.4)  # 0.5 V spikes at 180 pA
            points.append((neuron(I_IU=bias, I_IV=bias), ringdown_setup(amplitude)))
        return {"points": points}

    def units(self, inputs: dict) -> list[str]:
        return [f"op{i}" for i in range(len(inputs["points"]))]

    def sim_seconds(self, inputs: dict) -> float:
        return sum(setup.horizon for _, setup in inputs["points"])

    def steps(self, inputs: dict, outdir: Path) -> list:
        return [(unit, lambda p=p, setup=setup: experiments.run_ringdown(p, setup))
                for unit, (p, setup) in zip(self.units(inputs), inputs["points"])]

    def summarize(self, inputs: dict, outputs: list, outdir: Path) -> dict:
        return {
            unit: {"events": len(events), **metrics_record(m)}
            for unit, (_, events, m) in zip(self.units(inputs), outputs)
        }

    def check(self, inputs: dict, summary: dict) -> dict:
        reasons = {}
        for unit, (p, _) in zip(self.units(inputs), inputs["points"]):
            s, dp, bad = summary.get(unit), rf.derive_params(p), []
            if s is None:
                reasons[unit] = ["no output"]
                continue
            if s["events"]:
                bad.append(f"{s['events']} events")
            if s["flags"]:
                bad.append(f"flags {s['flags']}")
            if not within(s["f_res"], dp.f_res, 0.01):
                bad.append(f"f_res {s['f_res']} vs analytic {dp.f_res}")
            if not within(s["q_factor"], dp.Q, 0.10):
                bad.append(f"Q {s['q_factor']} vs analytic {dp.Q}")
            if not abs(s["baseline_U"] - dp.U_star) <= 1e-3:
                bad.append(f"baseline_U {s['baseline_U']} vs U* {dp.U_star}")
            reasons[unit] = bad
        return reasons

    def computed_counts(self, inputs: dict, outputs, outdir: Path) -> dict:
        return {}


class Population:
    """Monte-Carlo dies over a two-worker process pool; dies carry numpy scalars (D2)."""

    name = "population"
    n_dies = 8
    workers = 2

    def inputs(self, seed: int, workdir: Path) -> dict:
        model = rf.MismatchModel(**explicit(rf.MismatchModel, {**MISMATCH_SIGMAS, "seed": seed}))
        return {"base": neuron(), "model": model, "setup": ringdown_setup(0.4)}

    def units(self, inputs: dict) -> list[str]:
        return [f"die{i}" for i in range(self.n_dies)]

    def sim_seconds(self, inputs: dict) -> float:
        return self.n_dies * inputs["setup"].horizon

    def steps(self, inputs: dict, outdir: Path) -> list:
        base, model = inputs["base"], inputs["model"]

        def population():
            stats = montecarlo.run_population(
                base, model, self.n_dies, inputs["setup"], workers=self.workers)
            return stats, [montecarlo.sample_die(base, model, i) for i in range(self.n_dies)]

        return [("pool", population)]

    def summarize(self, inputs: dict, outputs: list, outdir: Path) -> dict:
        [(stats, dies)] = outputs
        return {
            unit: {**metrics_record(m), "f_analytic": float(rf.derive_params(die).f_res),
                   "population_resampled": stats.n_resampled}
            for unit, m, die in zip(self.units(inputs), stats.records, dies)
        }

    def check(self, inputs: dict, summary: dict) -> dict:
        reasons = {}
        for unit in self.units(inputs):
            s = summary.get(unit)
            if s is None:
                reasons[unit] = ["no output"]
            elif math.isfinite(s["f_res"]) and not within(s["f_res"], s["f_analytic"], 0.02):
                reasons[unit] = [f"f_res {s['f_res']} vs analytic {s['f_analytic']}"]
            else:
                reasons[unit] = []
        return reasons

    def computed_counts(self, inputs: dict, outputs, outdir: Path) -> dict:
        # the dies integrate in forked pool workers, whose spans are lost
        cfg = inputs["setup"].integrator
        steps = int(math.floor(inputs["setup"].horizon / cfg.dt + 1e-9))
        return {"integrator.calls": self.n_dies, "integrator.grid_steps": self.n_dies * steps}


CLI_COMMANDS = (("ringdown", ()), ("fi", ()), ("chirp", ("--full-map",)))


class CliSweep:
    """In-process CLI on a seeded YAML config: event-dense chirps, F-I lanes, file output."""

    name = "cli_sweep"
    workers = 1

    def inputs(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"cli_sweep/{seed}")
        f_start = rng.uniform(145.0, 155.0)
        integ = explicit(rf.IntegratorConfig,
                         {"dt": 1e-6, "t_end": 0.06, "crossing_tol": 1e-9, "sample_stride": 50})
        chirp = explicit(rf.ChirpSetup, {
            "f_start": f_start, "f_end": 1.6 * f_start, "n_freqs": 6, "spikes_per_freq": 4,
            "pulse_width": 100e-6, "amplitude": 0.5, "polarity": "inh",
            "bias_min": 105e-12, "bias_max": 160e-12, "n_bias": 3,
            "vth_min": 0.840, "vth_max": 0.900,
            "vth_anchor_min": 105e-12, "vth_anchor_max": 255e-12,
            "dt": 1e-6, "sample_stride": 50,
        })
        doc = {
            # the single chirp run shares bias and threshold with tuning-map row 0
            "neuron": explicit(rf.CircuitParams, {**NEURON, "I_IU": chirp["bias_min"],
                                                  "I_IV": chirp["bias_min"], "V_th": chirp["vth_min"]}),
            "integrator": integ,
            "handshake": explicit(rf.HandshakeConfig,
                                  {"mode": "self_ack", "T_spk": NEURON["T_spk"], "ack_delays": []}),
            "ringdown": explicit(rf.RingdownSetup, {
                "t0": 1e-3, "width": 100e-6, "amplitude": 0.4, "polarity": "inh",
                "horizon": 0.06, "settle_window": 0.015, "integrator": dict(integ)}),
            # spikes_per_point exceeds any count reachable within the timeout,
            # so every level runs its full horizon
            "fi": explicit(rf.FISetup, {"level_min": 0.38, "level_max": 0.48, "n_levels": 6,
                                        "spikes_per_point": 1000, "V_th": 0.840, "timeout": 0.08}),
            "chirp": chirp,
        }
        path = workdir / f"cli_sweep-{seed}.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        return {"config": path, "doc": doc, "parsed": config.load_config(path)}

    def units(self, inputs: dict) -> list[str]:
        return [cmd for cmd, _ in CLI_COMMANDS]

    def sim_seconds(self, inputs: dict) -> float:
        cfg = inputs["parsed"]
        chirp_s = cfg.chirp.program(cfg.neuron.V_DD).freq_blocks[-1].t_end
        return cfg.ringdown.horizon + cfg.fi.n_levels * cfg.fi.timeout + (1 + cfg.chirp.n_bias) * chirp_s

    def steps(self, inputs: dict, outdir: Path) -> list:
        def command(cmd, extra):
            argv = [cmd, "--config", str(inputs["config"]), "--outdir", str(outdir / cmd), *extra]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(argv)
            except Exception:  # the rfneuron process would die with a traceback and exit 1
                traceback.print_exc()
                return 1

        return [(cmd, lambda cmd=cmd, extra=extra: command(cmd, extra))
                for cmd, extra in CLI_COMMANDS]

    def summarize(self, inputs: dict, codes: list, outdir: Path) -> dict:
        readers = {"ringdown": _read_ringdown, "fi": _read_fi, "chirp": _read_chirp}
        summary = {}
        for (cmd, _), code in zip(CLI_COMMANDS, codes):
            record = {"exit": code}
            try:
                record.update(readers[cmd](outdir / cmd))
            except (OSError, ValueError, KeyError) as exc:
                record["unreadable"] = f"{type(exc).__name__}: {exc}"
            summary[cmd] = record
        return summary

    def check(self, inputs: dict, summary: dict) -> dict:
        T_spk = inputs["doc"]["handshake"]["T_spk"]
        bias = inputs["doc"]["neuron"]["I_IU"]
        reasons = {}
        for cmd in self.units(inputs):
            s, bad = summary.get(cmd, {"exit": None}), []
            if s["exit"] != 0:
                bad.append(f"exit code {s['exit']}")
            if "unreadable" in s:
                bad.append(s["unreadable"])
            for t_req, t_release, *_ in s.get("events", []) + s.get("raster", []):
                if abs(t_release - t_req - T_spk) > 1e-11:
                    bad.append(f"event at {t_req} held {t_release - t_req} s, not T_spk")
            if cmd == "fi" and "rows" in s:
                if len(s["rows"]) != inputs["doc"]["fi"]["n_levels"]:
                    bad.append(f"{len(s['rows'])} F-I rows")
                if any(not rate >= 0.0 for _, rate, _ in s["rows"]):
                    bad.append("negative or undefined rate")
            if cmd == "chirp" and "map_counts" in s:
                bad.extend(_check_map(s, bias))
            reasons[cmd] = bad
        return reasons

    def computed_counts(self, inputs: dict, codes, outdir: Path) -> dict:
        written = sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file())
        return {"cli.bytes_written": written}


def _check_map(s: dict, bias: float) -> list[str]:
    """Tuning-map row of the single-run bias must histogram the raster by block."""
    counts, freqs = s["map_counts"], s["map_freqs"]
    if any(c < 0 for row in counts for c in row):
        return ["negative tuning-map count"]
    if bias not in s["map_bias"]:
        return [f"no tuning-map row at the single-run bias {bias}"]
    row = counts[s["map_bias"].index(bias)]
    raster = [freqs.index(f) if f in freqs else -1 for *_, f in s["raster"]]
    histogram = [raster.count(j) for j in range(len(freqs))]
    bad = []
    if sum(row) != len(s["raster"]):
        bad.append(f"tuning-map row sums to {sum(row)}, raster has {len(s['raster'])} spikes")
    if row != histogram:
        bad.append(f"tuning-map row {row} differs from the raster histogram {histogram}")
    return bad


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_ringdown(out: Path) -> dict:
    with open(out / "ringdown_metrics.json") as fh:
        m = json.load(fh)
    events = [[float(r["t_req_s"]), float(r["t_release_s"])]
              for r in _rows(out / "ringdown_events.csv")]
    return {**{k: float(m[k]) for k in RINGDOWN_METRICS}, "flags": m["flags"], "events": events}


def _read_fi(out: Path) -> dict:
    return {"rows": [[float(r["level_V"]), float(r["rate_Hz"]), float(r["rate_std_Hz"])]
                     for r in _rows(out / "fi_curve.csv")]}


def _read_chirp(out: Path) -> dict:
    with open(out / "tuning_map.json") as fh:
        tm = json.load(fh)
    raster = [[float(r["t_req_s"]), float(r["t_release_s"]), float(r["block_freq_Hz"])]
              for r in _rows(out / "chirp_raster.csv")]
    return {"raster": raster, "map_counts": tm["counts"], "map_bias": tm["bias_levels_A"],
            "map_freqs": [float(f"{f:.12g}") for f in tm["frequencies_Hz"]]}


def warm_up() -> None:
    """One short integrate() of the nominal neuron, so lazy imports and caches are filled."""
    p = neuron()
    dp = rf.derive_params(p)
    s0 = rf.NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
    prog = rf.pulse(1e-3, 100e-6, 0.4, v_limit=p.V_DD)
    rf.integrate(s0, p, prog, rf.IntegratorConfig(t_end=5e-3))


WORKLOADS = {w.name: w for w in (Ringdown(), Population(), CliSweep())}
