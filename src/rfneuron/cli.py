"""Experiment runner CLI.

Subcommands map one-to-one onto the characterization experiments:

    ringdown    inhibitory-pulse ringdown, trace + extracted metrics
    fi          firing rate versus constant input level
    chirp       chirp raster at one bias, optionally the full tuning map
    sweep-bias  resonant frequency versus bias current, with linear fit
    montecarlo  die-to-die variability statistics

All outputs are plain CSV/JSON plus a YAML dump of the effective
configuration.  Exit codes:

    0  success
    1  configuration error, including a scripted acknowledge list too short
       for the run and a mismatch model that yields no valid Monte-Carlo die
    2  numeric diagnostic: a voltage-guard overflow flag was raised, or a
       reported metric is undefined (e.g. ``sweep-bias`` with fewer than 2
       measurable points)
    3  I/O error

Each failure above except an overflow flag prints one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import tuning_map, fi_curve
from .config import ExperimentConfig, dump_effective_config, load_config
from .errors import ConfigError, ProtocolError, UndefinedMetricError
from .handshake import events_to_csv
from .experiments import linear_fit, run_bias_sweep, run_chirp, run_ringdown
from .montecarlo import run_population

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _load(args) -> ExperimentConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides["montecarlo.model.seed"] = args.seed
    if args.dt is not None:
        overrides["integrator.dt"] = args.dt
        overrides["ringdown.integrator.dt"] = args.dt
        overrides["chirp.dt"] = args.dt
    return load_config(args.config, overrides)


def _prepare_outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_provenance(cfg: ExperimentConfig, out: Path) -> None:
    dump_effective_config(cfg, out / "effective_config.yaml")


def cmd_ringdown(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(args)
    trace, events, metrics = run_ringdown(cfg.neuron, cfg.ringdown, cfg.handshake)
    trace.to_csv(out / "ringdown_trace.csv")
    metrics.to_json(out / "ringdown_metrics.json")
    events_to_csv(events, out / "ringdown_events.csv")
    _write_provenance(cfg, out)
    print(f"ringdown: baseline_U={metrics.baseline_U:.6g} V, "
          f"f_res={metrics.f_res:.6g} Hz, Q={metrics.q_factor:.6g}, "
          f"{len(events)} events, flags={list(metrics.flags)}")
    return EXIT_NUMERIC if trace.any_overflow else EXIT_OK


def cmd_fi(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(args)
    p = dataclasses.replace(cfg.neuron, V_th=cfg.fi.V_th)
    rows = fi_curve(
        p, cfg.fi.levels(), spikes_per_point=cfg.fi.spikes_per_point,
        timeout=cfg.fi.timeout, cfg=cfg.integrator, protocol=cfg.handshake,
    )
    with open(out / "fi_curve.csv", "w") as fh:
        fh.write("level_V,rate_Hz,rate_std_Hz\n")
        for level, rate, std in rows:
            fh.write(f"{level:.12g},{rate:.12g},{std:.12g}\n")
    _write_provenance(cfg, out)
    onset = next((lv for lv, r, _ in rows if r > 0.0), None)
    print(f"fi: {len(rows)} levels, onset="
          f"{'none' if onset is None else f'{onset:.3g} V'}")
    return EXIT_OK


def cmd_chirp(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(args)
    trace, events, prog = run_chirp(cfg.neuron, cfg.chirp, cfg.handshake)
    with open(out / "chirp_raster.csv", "w") as fh:
        fh.write("index,t_req_s,t_release_s,block_freq_Hz\n")
        for e in events:
            f = prog.freq_blocks[prog.block_index(e.t_req)].frequency
            fh.write(f"{e.index},{e.t_req:.12g},{e.t_release:.12g},{f:.12g}\n")
    trace.to_csv(out / "chirp_trace.csv")
    overflow = trace.any_overflow
    summary = {"n_spikes": len(events)}
    if args.full_map:
        tm = tuning_map(
            cfg.neuron, cfg.chirp.bias_levels(), cfg.chirp.vth_schedule(),
            prog, cfg=cfg.chirp.integrator_config(prog), protocol=cfg.handshake,
        )
        tm.to_csv(out / "tuning_map.csv")
        tm.to_json(out / "tuning_map.json")
        detected = [tm.detected_frequency(i) for i in range(len(tm.bias_levels))]
        summary["detected_Hz"] = [None if f is None else round(f, 3) for f in detected]
    _write_provenance(cfg, out)
    print(f"chirp: {json.dumps(summary)}")
    return EXIT_NUMERIC if overflow else EXIT_OK


def cmd_sweep_bias(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(args)
    rows = run_bias_sweep(cfg.neuron, cfg.sweep)
    with open(out / "sweep_bias.csv", "w") as fh:
        fh.write("I_A,f_res_Hz,f_analytic_Hz,flags\n")
        for r in rows:
            fh.write(f"{r['I_A']:.12g},{r['f_res_Hz']:.12g},"
                     f"{r['f_analytic_Hz']:.12g},{r['flags']}\n")
    measured = [(r["I_A"], r["f_res_Hz"]) for r in rows if math.isfinite(r["f_res_Hz"])]
    fit = linear_fit(np.asarray([m[0] for m in measured]),
                     np.asarray([m[1] for m in measured]))
    fit["n_points"] = len(measured)
    fit["n_flagged"] = len(rows) - len(measured)
    with open(out / "sweep_fit.json", "w") as fh:
        json.dump(fit, fh, indent=2)
        fh.write("\n")
    _write_provenance(cfg, out)
    print(f"sweep-bias: R^2={fit['r_squared']:.6f}, "
          f"slope={fit['slope_Hz_per_A']:.6g} Hz/A, "
          f"intercept={fit['intercept_Hz']:.4g} Hz")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(args)
    setup = cfg.montecarlo.ringdown(cfg.ringdown)
    stats = run_population(
        cfg.neuron, cfg.montecarlo.model, cfg.montecarlo.n_dies,
        setup, workers=cfg.montecarlo.workers, protocol=cfg.handshake,
    )
    stats.to_json(out / "population.json")
    stats.dies_to_csv(out / "dies.csv")
    _write_provenance(cfg, out)
    cvs = {m: round(stats.cv_percent(m), 3) for m in ("baseline_U", "f_res", "q_factor")}
    print(f"montecarlo: {stats.n_dies} dies, CV% = {json.dumps(cvs)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfneuron",
        description="Behavioral resonate-and-fire neuron experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ringdown": cmd_ringdown,
        "fi": cmd_fi,
        "chirp": cmd_chirp,
        "sweep-bias": cmd_sweep_bias,
        "montecarlo": cmd_montecarlo,
    }
    for name, fn in commands.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="YAML config path")
        sp.add_argument("--outdir", type=str, default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="Monte-Carlo seed override")
        sp.add_argument("--dt", type=float, default=None, help="integrator step override (s)")
        if name == "chirp":
            sp.add_argument("--full-map", action="store_true",
                            help="also sweep bias/threshold and emit the tuning map")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UndefinedMetricError as exc:
        print(f"undefined metric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
