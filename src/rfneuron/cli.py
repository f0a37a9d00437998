"""Experiment runner CLI and the package's one result writer.

Subcommands map one-to-one onto the characterization experiments.  Each
writes its result files into ``--outdir``:

    ringdown    inhibitory-pulse ringdown: ringdown_trace.csv,
                ringdown_events.csv, ringdown_metrics.json
    fi          firing rate versus constant input level: fi_curve.csv
    chirp       chirp raster at one bias: chirp_raster.csv, chirp_trace.csv;
                ``--full-map`` adds tuning_map.csv and tuning_map.json
    sweep-bias  resonant frequency versus bias current, with linear fit:
                sweep_bias.csv, sweep_fit.json
    montecarlo  die-to-die variability statistics: population.json, dies.csv

``--dt`` sets the integrator step of every subcommand but ``sweep-bias``,
which steps each point by 1/450 of its nominal period.  ``--seed`` sets
the mismatch seed and is taken by ``montecarlo`` alone, the one subcommand
that samples.

``chirp --full-map`` runs the raster and every tuning-map row, each a
one-row map, as independent runs on ``analysis.map_lanes``.  Its files are
written once every run has returned, so a run that fails leaves no raster
files in the outdir.

A subcommand that returns also writes effective_config.yaml, the fully
defaulted configuration.  Every result file goes through :func:`write_csv`
or :func:`write_json`.  A CSV float cell has 12 significant digits
(``.12g``), an int or bool flag is written as an integer, and a string as
it is; JSON is indented by 2 and ends in a newline.  ``write_csv`` formats
each run of consecutive rows with the same cell types in one ``%`` call, at
most ``_RUN_ROWS`` rows at a time, and writes the same bytes as formatting
row by row.

:func:`build_parser` builds the argument parser once per process, so a
caller that runs :func:`main` many times in one process (a notebook, the
tests, an in-process benchmark) parses each argv with the same parser.
Exit codes:

    0  success
    1  configuration error, including a config file that is not well-formed
       YAML, a scripted acknowledge list too short for the run and a
       mismatch model that yields no valid Monte-Carlo die
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
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .analysis import TuningMap, fi_curve, linear_fit, map_lanes, tuning_map
from .config import ExperimentConfig, dump_effective_config, load_config
from .errors import ConfigError, ProtocolError, UndefinedMetricError
from .experiments import run_bias_sweep, run_chirp, run_ringdown
from .montecarlo import METRIC_NAMES, run_population

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

_RUN_ROWS = 4096  # rows per run of write_csv; bounds the memory one run holds


def _row_template(types: tuple[type, ...]) -> str:
    """The ``%`` template of a CSV row whose cells have these types.

    A string cell is ``%s``, a float (numpy's float64 included) ``%.12g``,
    and any other cell ``%d``, which writes ``int(cell)``.
    """
    return ",".join(
        "%s" if issubclass(t, str) else "%.12g" if issubclass(t, float) else "%d" for t in types
    ) + "\n"


def write_csv(path, header, rows) -> None:
    """Stream ``header`` and then each row of cells to a CSV file.

    A float cell is written to 12 significant digits, an int or bool flag as
    an integer (numpy scalars included), and a string as it is.  A run of
    consecutive rows whose cells share a tuple of types is formatted by one
    ``%`` call, that tuple's template (:func:`_row_template`) repeated once
    per row, and written at once.  A run holds at most ``_RUN_ROWS`` rows,
    so a long file is never held in memory whole.
    """
    def write_run(fh, types, run, cells=None) -> None:
        if cells is None:
            cells = tuple(chain.from_iterable(run))
        fh.write((_row_template(types) * len(run)) % cells)

    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        header = tuple(header)
        write_run(fh, tuple(map(type, header)), [header])
        while chunk := list(map(tuple, islice(rows, _RUN_ROWS))):
            types = tuple(map(type, chunk[0]))
            cells = tuple(chain.from_iterable(chunk))
            # the common case, a chunk of one run, is decided over all its cells at once
            if set(map(len, chunk)) == {len(types)} and \
                    tuple(map(type, cells)) == types * len(chunk):
                write_run(fh, types, chunk, cells)
                continue
            start = 0
            for i, row in enumerate(chunk):
                row_types = tuple(map(type, row))
                if row_types != types:
                    write_run(fh, types, chunk[start:i])
                    start, types = i, row_types
            write_run(fh, types, chunk[start:])


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON indented by 2, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_trace(path, trace) -> None:
    columns = (trace.t, trace.U, trace.V, trace.I_in, trace.clamped, trace.overflow)
    write_csv(path, ("t_s", "U_V", "V_V", "I_in_A", "clamped", "overflow"),
              zip(*(c.tolist() for c in columns)))


def _load(args) -> ExperimentConfig:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        overrides["montecarlo.model.seed"] = args.seed
    if getattr(args, "dt", None) is not None:
        overrides["integrator.dt"] = args.dt
        overrides["ringdown.integrator.dt"] = args.dt
        overrides["chirp.dt"] = args.dt
    return load_config(args.config, overrides)


def cmd_ringdown(cfg: ExperimentConfig, out: Path, args) -> int:
    trace, events, metrics = run_ringdown(cfg.neuron, cfg.ringdown, cfg.handshake)
    _write_trace(out / "ringdown_trace.csv", trace)
    write_csv(out / "ringdown_events.csv", ("index", "t_req_s", "t_release_s"),
              ((e.index, e.t_req, e.t_release) for e in events))
    write_json(out / "ringdown_metrics.json", dataclasses.asdict(metrics))
    print(f"ringdown: baseline_U={metrics.baseline_U:.6g} V, "
          f"f_res={metrics.f_res:.6g} Hz, Q={metrics.q_factor:.6g}, "
          f"{len(events)} events, flags={list(metrics.flags)}")
    return EXIT_NUMERIC if trace.any_overflow else EXIT_OK


def cmd_fi(cfg: ExperimentConfig, out: Path, args) -> int:
    p = dataclasses.replace(cfg.neuron, V_th=cfg.fi.V_th)
    rows = fi_curve(
        p, cfg.fi.levels(), spikes_per_point=cfg.fi.spikes_per_point,
        timeout=cfg.fi.timeout, cfg=cfg.integrator, protocol=cfg.handshake,
    )
    write_csv(out / "fi_curve.csv", ("level_V", "rate_Hz", "rate_std_Hz"), rows)
    onset = next((lv for lv, r, _ in rows if r > 0.0), None)
    print(f"fi: {len(rows)} levels, onset="
          f"{'none' if onset is None else f'{onset:.3g} V'}")
    return EXIT_OK


def cmd_chirp(cfg: ExperimentConfig, out: Path, args) -> int:
    prog = cfg.chirp.program(v_limit=cfg.neuron.V_DD)
    bias, vth = (cfg.chirp.bias_levels(), cfg.chirp.vth_schedule()) if args.full_map else ([], [])
    runs = [partial(run_chirp, cfg.neuron, cfg.chirp, cfg.handshake), *(
        partial(tuning_map, cfg.neuron, [b], [v], prog,
                cfg=cfg.chirp.integrator_config(prog), protocol=cfg.handshake)
        for b, v in zip(bias, vth))]
    (trace, events, _), *rows = map_lanes(lambda run: run(), runs)
    blocks = prog.freq_blocks
    write_csv(out / "chirp_raster.csv", ("index", "t_req_s", "t_release_s", "block_freq_Hz"),
              ((e.index, e.t_req, e.t_release, blocks[prog.block_index(e.t_req)].frequency)
               for e in events))
    _write_trace(out / "chirp_trace.csv", trace)
    summary = {"n_spikes": len(events)}
    if args.full_map:
        tm = TuningMap(tuple(bias), rows[0].frequencies, tuple(vth),
                       np.concatenate([row.counts for row in rows]))
        counts = tm.counts.tolist()
        write_csv(out / "tuning_map.csv", ("bias_A\\freq_Hz", *tm.frequencies),
                  ((b, *row) for b, row in zip(tm.bias_levels, counts)))
        write_json(out / "tuning_map.json", {
            "bias_levels_A": tm.bias_levels, "frequencies_Hz": tm.frequencies,
            "vth_schedule_V": tm.vth_schedule, "counts": counts,
        })
        detected = [tm.detected_frequency(i) for i in range(len(tm.bias_levels))]
        summary["detected_Hz"] = [None if f is None else round(f, 3) for f in detected]
    print(f"chirp: {json.dumps(summary)}")
    return EXIT_NUMERIC if trace.any_overflow else EXIT_OK


def cmd_sweep_bias(cfg: ExperimentConfig, out: Path, args) -> int:
    rows = run_bias_sweep(cfg.neuron, cfg.sweep)
    header = ("I_A", "f_res_Hz", "f_analytic_Hz", "flags")
    write_csv(out / "sweep_bias.csv", header, ([r[k] for k in header] for r in rows))
    measured = [(r["I_A"], r["f_res_Hz"]) for r in rows if math.isfinite(r["f_res_Hz"])]
    fit = linear_fit(np.asarray([m[0] for m in measured]),
                     np.asarray([m[1] for m in measured]))
    fit["n_points"] = len(measured)
    fit["n_flagged"] = len(rows) - len(measured)
    write_json(out / "sweep_fit.json", fit)
    print(f"sweep-bias: R^2={fit['r_squared']:.6f}, "
          f"slope={fit['slope_Hz_per_A']:.6g} Hz/A, "
          f"intercept={fit['intercept_Hz']:.4g} Hz")
    return EXIT_OK


def cmd_montecarlo(cfg: ExperimentConfig, out: Path, args) -> int:
    setup = cfg.montecarlo.ringdown(cfg.ringdown)
    stats = run_population(cfg.neuron, cfg.montecarlo.model, cfg.montecarlo.n_dies, setup,
                           protocol=cfg.handshake)
    write_json(out / "population.json", {
        "n_dies": stats.n_dies, "n_resampled": stats.n_resampled, "metrics": stats.stats,
    })
    write_csv(out / "dies.csv", ("die", *METRIC_NAMES, "flags"),
              ((i, *(getattr(rec, m) for m in METRIC_NAMES), ";".join(rec.flags))
               for i, rec in enumerate(stats.records)))
    cvs = {m: round(stats.cv_percent(m), 3) for m in ("baseline_U", "f_res", "q_factor")}
    print(f"montecarlo: {stats.n_dies} dies, CV% = {json.dumps(cvs)}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rfneuron`` argument parser, built once per process.

    Parsing leaves it unchanged, so every :func:`main` call reuses it.  It
    binds only the ``cmd_*`` functions; each of them looks up what it runs
    in this module when it is called.
    """
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
        if name == "montecarlo":  # the only subcommand that samples
            sp.add_argument("--seed", type=int, default=None, help="Monte-Carlo seed override")
        if name != "sweep-bias":  # each sweep point sets its own step
            sp.add_argument("--dt", type=float, default=None, help="integrator step override (s)")
        if name == "chirp":
            sp.add_argument("--full-map", action="store_true",
                            help="also sweep bias/threshold and emit the tuning map")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        out = Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        code = args.fn(cfg, out, args)
        dump_effective_config(cfg, out / "effective_config.yaml")
        return code
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
