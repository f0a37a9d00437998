"""Span wrappers at rfneuron's module boundaries and the per-layer metrics derived from them.

Layers are the package's modules.  Counts marked *computed* in the metric
descriptions come from a call's inputs and outputs (step grid, events,
breakpoints), never from inside the program, so they repeat exactly for a
seed.  Pool workers are forked, so spans recorded inside them are lost:
on the population workload only the parent's spans exist.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import numbers
from collections import defaultdict

from spans import Recorder, self_times

# (module, attribute, span name, record CPU) for every wrapped call site.
CALL_SITES = (
    ("cli", "main", "cli.main", True),
    ("cli", "load_config", "config.load_config", False),
    ("cli", "dump_effective_config", "config.dump_effective_config", False),
    ("cli", "run_ringdown", "experiments.run_ringdown", False),
    ("cli", "run_chirp", "experiments.run_chirp", False),
    ("cli", "fi_curve", "analysis.fi_curve", True),
    ("cli", "tuning_map", "analysis.tuning_map", True),
    ("experiments", "run_ringdown", "experiments.run_ringdown", False),
    ("experiments", "ringdown_metrics", "analysis.ringdown_metrics", False),
    ("experiments", "pulse", "stimuli.pulse", False),
    ("experiments", "spiking_chirp", "stimuli.spiking_chirp", False),
    ("analysis", "step", "stimuli.step", False),
    ("integrator", "synapse_current", "stimuli.synapse_current", False),
    ("integrator", "derive_params", "core.derive_params", False),
    ("experiments", "derive_params", "core.derive_params", False),
    ("analysis", "derive_params", "core.derive_params", False),
    ("montecarlo", "derive_params", "core.derive_params", False),
)

SWEEPS = ("analysis.fi_curve", "analysis.tuning_map")

# Counts that must repeat exactly across runs of one seed.
DETERMINISTIC = (
    "integrator.grid_steps", "stimuli.breakpoints", "handshake.events",
    "integrator.bisect_steps", "cli.bytes_written", "montecarlo.numpy_scalar_fields",
)


def _integrate_counts(integrate):
    sig = inspect.signature(integrate)

    def counts(args, kwargs, result) -> dict:
        call = sig.bind(*args, **kwargs).arguments
        cfg, prog = call["cfg"], call["prog"]
        trace, events = result
        t_stop = float(trace.t[-1])
        return {
            "sim_s": t_stop,
            "grid_steps": int(math.floor(t_stop / cfg.dt + 1e-9)),
            "samples": len(trace),
            "bisect_steps": len(events) * math.ceil(math.log2(cfg.dt / cfg.crossing_tol)),
            "breakpoints": sum(1 for b in prog.breakpoints if 0.0 < b < cfg.t_end),
            "clamp_sim_s": sum(min(e.t_release, t_stop) - e.t_req for e in events),
        }

    return counts


def _numpy_scalar_fields(args, kwargs, die) -> dict:
    n = sum(
        1 for f in dataclasses.fields(die)
        if isinstance(v := getattr(die, f.name), numbers.Real)
        and not isinstance(v, bool) and type(v) is not float
    )
    return {"numpy_scalar_fields": n}


def install(rec: Recorder) -> None:
    """Wrap every call site of interest; ``rec.restore()`` undoes it."""
    from rfneuron import analysis, cli, experiments, integrator, montecarlo

    modules = {"cli": cli, "experiments": experiments, "analysis": analysis,
               "integrator": integrator, "montecarlo": montecarlo}
    for module, attr, name, cpu in CALL_SITES:
        rec.patch_call(modules[module], attr, name, cpu)
    for module in (experiments, analysis):
        rec.patch_call(module, "integrate", "integrator.integrate",
                       counts=_integrate_counts(module.integrate))
    rec.patch_call(montecarlo, "sample_die", "montecarlo.sample_die", counts=_numpy_scalar_fields)
    rec.patch_call(montecarlo, "run_population", "montecarlo.run_population", cpu=True,
                   counts=lambda a, k, stats: {"resampled": stats.n_resampled})
    fsm = integrator.HandshakeFSM
    rec.patch(integrator, "HandshakeFSM", type(fsm.__name__, (fsm,), {
        "on_threshold": rec.wrap(fsm.on_threshold, "handshake.on_threshold"),
        "release": rec.wrap(fsm.release, "handshake.release"),
    }))


def layer_metrics(spans, computed: dict, workers: int = 1) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``computed`` holds counts the workload derives from its inputs and
    outputs where no span exists (pool workers, bytes on disk); it
    overrides span-derived values of the same name.
    """
    selfs = self_times(spans)
    named = defaultdict(list)
    for s, t in zip(spans, selfs):
        named[s.name].append((s, t))

    def n(name):
        return len(named[name])

    def own(*names):
        return sum(t for name in names for _, t in named[name])

    def total(name, key):
        return sum(s.counts.get(key, 0) for s, _ in named[name])

    def by_layer(layer):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    integ = "integrator.integrate"
    pool = named["montecarlo.run_population"]
    sweep_ids = {i for i, s in enumerate(spans) if s.name in SWEEPS}
    sweep_wall = sum(s.duration for name in SWEEPS for s, _ in named[name])
    sweep_cpu = sum(s.cpu_self + s.cpu_children for name in SWEEPS for s, _ in named[name])
    pool_wall = sum(s.duration for s, _ in pool)
    extract = [s.duration for s, _ in named["analysis.ringdown_metrics"]]
    samples = [s.duration for s, _ in named["montecarlo.sample_die"]]

    m = {
        "integrator.calls": n(integ),
        "integrator.grid_steps": total(integ, "grid_steps"),
        # without integrate spans (pool workers) the integrator's time is the pool's CPU
        "integrator.self_s": own(integ) if named[integ] else sum(s.cpu_children for s, _ in pool),
        "integrator.samples": total(integ, "samples"),
        "integrator.bisect_steps": total(integ, "bisect_steps"),
        "integrator.sim_s": total(integ, "sim_s"),
        "handshake.events": n("handshake.on_threshold"),
        "handshake.clamp_sim_s": total(integ, "clamp_sim_s"),
        "handshake.self_s": by_layer("handshake"),
        "stimuli.breakpoints": total(integ, "breakpoints"),
        "stimuli.segment_switches": n("stimuli.synapse_current"),
        "stimuli.self_s": by_layer("stimuli"),
        "core.derive_params.calls": n("core.derive_params"),
        "core.self_s": by_layer("core"),
        "analysis.extract_ms": 1e3 * sum(extract) / len(extract) if extract else 0.0,
        "analysis.sweep_self_s": own(*SWEEPS),
        "analysis.lanes": sum(1 for s, _ in named[integ] if s.parent in sweep_ids),
        "analysis.cpu_util": sweep_cpu / sweep_wall if sweep_wall else 0.0,
        "experiments.self_s": by_layer("experiments"),
        "montecarlo.numpy_scalar_fields": total("montecarlo.sample_die", "numpy_scalar_fields"),
        "montecarlo.sample_ms": 1e3 * sum(samples) / len(samples) if samples else 0.0,
        "montecarlo.resampled": total("montecarlo.run_population", "resampled"),
        "montecarlo.pool_busy_frac": (sum(s.cpu_children for s, _ in pool) / (pool_wall * workers)
                                      if pool_wall else 0.0),
        "config.load_s": sum(s.duration for s, _ in named["config.load_config"]),
        "config.dump_s": sum(s.duration for s, _ in named["config.dump_effective_config"]),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": 0,
    }
    m.update(computed)
    steps = m["integrator.grid_steps"]
    m["integrator.ns_per_step"] = 1e9 * m["integrator.self_s"] / steps if steps else 0.0
    return m
