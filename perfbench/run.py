"""Run one benchmark workload against the checkout's rfneuron and print its metrics.

    python3 perfbench/run.py --workload ringdown --seed 1 --seconds 30 --trace 0

The workload is repeated while the next repetition still fits in
``--seconds``; every repetition's outputs go through the correctness gate.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported
from untraced repetitions (timings are medians of wall times rescaled to a
nominal host speed, see ``calibration_loop``).  With ``--trace 1`` traced
and untraced repetitions alternate and the per-layer metrics are reported;
spans are written to ``.perfbench_work/spans/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import layers
from checkout import ROOT, WORK
from spans import Recorder

SETUP_PROBES = 3

# On shared VMs the host's speed drifts: on the 2-vCPU VM this benchmark was
# built on, the same ringdown took 0.85-1.9 s within minutes, with CPU time
# equal to wall time.  A fixed pure-Python loop with the integrator's mix of
# float arithmetic and math.exp is timed around every timed step and set-up
# probe, on as many processes at once as the step keeps busy, and each wall
# time is rescaled by the mean loop time around it to CALIBRATION_NOMINAL_S,
# the loop's median time on that VM.  A pool step (population: ~15 s on both
# vCPUs) varies less than one short sample of the loop does, so the loop is
# repeated POOL_CALIBRATION_REPEATS times around it and averaged.
CALIBRATION_STEPS = 400_000
CALIBRATION_NOMINAL_S = 0.142
POOL_CALIBRATION_REPEATS = 5


def calibration_loop() -> float:
    """Seconds taken by the fixed calibration loop."""
    exp = math.exp
    u, v, acc = 0.7, 0.8, 0.0
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        a = exp(20.0 * u) * 1e-9
        b = exp(20.0 * v) * 1e-9
        u = 0.7 + (a - b) * 1e-3
        v = 0.8 + (b - a) * 1e-3
        acc += u * v
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop diverged")
    return elapsed


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median rescaled wall time of fresh interpreters that import, generate inputs and warm up."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    calib = calibration_loop()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(probe), workload, str(seed), str(workdir)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        before, calib = calib, calibration_loop()
        times.append(wall * CALIBRATION_NOMINAL_S / ((before + calib) / 2))
    return statistics.median(times)


def _calibration_lane(conn, parent_end) -> None:
    """Helper process: report ready, then run the loop on each request.

    The forked helper closes its copy of the parent's end of the pipe, so
    that it reads end-of-file and exits if the parent dies without asking.
    """
    parent_end.close()
    conn.send(None)
    try:
        while conn.recv():
            conn.send(calibration_loop())
    except EOFError:
        pass


class Calibrator:
    """Times the calibration loop on ``lanes`` processes at once (the slowest
    counts), averaged over ``repeats`` runs of the loop."""

    def __init__(self, lanes: int, repeats: int) -> None:
        # fork, not spawn: spawning starts multiprocessing's resource tracker,
        # a process that outlives the benchmark
        ctx = multiprocessing.get_context("fork")
        self.repeats = repeats
        self._lanes = []
        for _ in range(lanes - 1):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_calibration_lane, args=(child, conn), daemon=True)
            proc.start()
            child.close()
            self._lanes.append((conn, proc))
        for conn, _ in self._lanes:
            conn.recv()

    def measure(self) -> float:
        total = 0.0
        for _ in range(self.repeats):
            for conn, _ in self._lanes:
                conn.send(True)
            total += max([calibration_loop()] + [conn.recv() for conn, _ in self._lanes])
        return total / self.repeats

    def close(self) -> None:
        for conn, proc in self._lanes:
            with contextlib.suppress(OSError):
                conn.send(False)
            conn.close()
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()


def timed_steps(steps: list, rec: Recorder, cal: Calibrator,
                calib: float) -> tuple[list, float, float, float]:
    """Run the (unit, thunk) steps of one repetition, calibrating after each.

    Returns the outputs, the summed wall time, the summed wall time with each
    step rescaled by the mean of the calibrations around it, and the last
    calibration time.
    """
    outputs, wall, scaled = [], 0.0, 0.0
    for unit, thunk in steps:
        rec.unit = unit
        t0 = time.perf_counter()
        outputs.append(thunk())
        step = time.perf_counter() - t0
        before, calib = calib, cal.measure()
        wall += step
        scaled += step * CALIBRATION_NOMINAL_S / ((before + calib) / 2)
    return outputs, wall, scaled, calib


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (ru_maxrss is in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS, rf, warm_up  # imports rfneuron from the checkout

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    cal = Calibrator(wl.workers, 1 if wl.workers == 1 else POOL_CALIBRATION_REPEATS)
    try:
        inputs = wl.inputs(args.seed, workdir)
        warm_up()
        reference = gate.load_reference(wl.name, args.seed)
        units = wl.units(inputs)
        walls = {False: [], True: []}
        norm = {False: [], True: []}
        calib = cal.measure()
        layer_runs, recorders, problems = [], [], []
        attempted = failed = 0
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(walls[True]) <= len(walls[False])
            rec = Recorder()
            outdir = workdir / "out"
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir()
            if traced:
                layers.install(rec)
            try:
                outputs, wall, scaled, calib = timed_steps(wl.steps(inputs, outdir), rec, cal, calib)
            finally:
                rec.restore()
            walls[traced].append(wall)
            norm[traced].append(scaled)
            print(f"perfbench: {'traced' if traced else 'untraced'} repetition {wall:.4f} s,"
                  f" rescaled {scaled:.4f} s", file=sys.stderr)
            summary = wl.summarize(inputs, outputs, outdir)
            reasons = gate.gate(wl, inputs, summary, reference)
            attempted += len(units)
            for unit, why in reasons.items():
                if why:
                    failed += 1
                    print(f"perfbench: {wl.name} seed {args.seed} {unit} failed: {'; '.join(why)}",
                          file=sys.stderr)
            if traced:
                computed = wl.computed_counts(inputs, outputs, outdir)
                layer_runs.append(layers.layer_metrics(rec.spans, computed, wl.workers))
                recorders.append(rec)
                sim = layer_runs[-1]["integrator.sim_s"]
                if sim and not math.isclose(sim, wl.sim_seconds(inputs), rel_tol=1e-9):
                    problems.append(f"traced sim time {sim} s != planned {wl.sim_seconds(inputs)} s")
            del outputs
            # stop before a repetition that would overrun --seconds, once the minimum is met
            elapsed = time.perf_counter() - started
            per_rep = elapsed / (len(walls[False]) + len(walls[True]))
            if args.trace:
                enough = len(walls[True]) >= 2 and len(walls[False]) >= 1
            else:
                enough = len(walls[False]) >= 2
            if enough and elapsed + per_rep > args.seconds:
                break

        if args.trace:
            problems += unrepeated_counts(layer_runs)
            metrics = per_layer(spec, layer_runs, norm)
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans_path = spans_dir / f"{wl.name}-seed{args.seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            for i, r in enumerate(recorders):
                r.dump(spans_path, i)
        else:
            wall = statistics.median(norm[False])
            values = {
                "norm_wall_s": wall,
                "sim_rate": wl.sim_seconds(inputs) / wall,
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": setup_seconds(wl.name, args.seed, workdir),
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        cal.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    reps = f"{len(walls[False])} untraced" + (f", {len(walls[True])} traced" if args.trace else "")
    print(f"{wl.name} seed {args.seed}: {reps} repetitions; rfneuron from {Path(rf.__file__).parent}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_s':32s} {statistics.median(walls[False]):.6g} s (not rescaled)")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio ({failed} of {attempted} units)")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unrepeated_counts(runs: list[dict]) -> list[str]:
    """Deterministic counts that differ between traced repetitions of one seed."""
    return [f"{name} differs between runs of one seed: {sorted({r[name] for r in runs})}"
            for name in layers.DETERMINISTIC if len({r[name] for r in runs}) > 1]


def per_layer(spec: dict, runs: list[dict], norm: dict) -> dict:
    """Medians over traced repetitions, plus the tracing overhead."""
    untraced = statistics.median(norm[False])
    # counts repeat exactly (see unrepeated_counts); timings are medians
    values = {name: runs[0][name] if isinstance(runs[0][name], int)
              else statistics.median(r[name] for r in runs) for name in runs[0]}
    values["bench.tracing_overhead_frac"] = (statistics.median(norm[True]) - untraced) / untraced
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
