"""Tests of the benchmark's own logic: span arithmetic, the gate, input hygiene, calibration.

None of them runs a simulation; the gate is exercised on recorded outputs.
"""

from __future__ import annotations

import copy
import dataclasses
import types

import pytest
import yaml

import gate
import layers
import run
import workloads
from spans import Recorder, Span, self_times
from workloads import WORKLOADS, rf


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("c", 2.0, 3.0, 1, None),   # grandchild of root: only a loses it
        Span("b", 5.0, 9.0, 0, None),
        Span("d", 5.0, 7.0, 3, None),   # d and e overlap: their union covers 3 s of b
        Span("e", 6.0, 8.0, 3, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("p", 0.0, 2.0, None, None), Span("q", 1.5, 3.0, 0, None)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_recorder_nests_spans_and_restores_the_module():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    rec = Recorder()
    rec.patch_call(mod, "outer", "layer.outer")
    rec.patch_call(mod, "inner", "layer.inner", counts=lambda a, k, r: {"result": r})
    rec.unit = "u0"
    assert mod.outer(1) == 4
    rec.restore()
    assert mod.inner is original
    outer, inner = rec.spans
    assert (outer.name, outer.parent) == ("layer.outer", None)
    assert (inner.name, inner.parent) == ("layer.inner", 0)
    assert inner.unit == "u0" and inner.counts == {"result": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_layer_metrics_from_synthetic_spans():
    spans = [
        Span("analysis.fi_curve", 0.0, 10.0, None, "fi", cpu_self=9.0),
        Span("integrator.integrate", 1.0, 5.0, 0, "fi", counts={"grid_steps": 1000, "sim_s": 0.5}),
        Span("stimuli.synapse_current", 2.0, 3.0, 1, "fi"),
        Span("integrator.integrate", 5.0, 9.0, 0, "fi", counts={"grid_steps": 1000, "sim_s": 0.5}),
    ]
    m = layers.layer_metrics(spans, {"cli.bytes_written": 7})
    assert m["integrator.self_s"] == pytest.approx(7.0)
    assert m["integrator.ns_per_step"] == pytest.approx(3.5e6)
    assert m["analysis.sweep_self_s"] == pytest.approx(2.0)
    assert m["analysis.lanes"] == 2
    assert m["analysis.cpu_util"] == pytest.approx(0.9)
    assert m["stimuli.segment_switches"] == 1
    assert m["cli.bytes_written"] == 7


CORRUPTIONS = {
    "ringdown": ("op1", lambda s: s["op1"].update(f_res=s["op1"]["f_res"] * 1.001)),
    "population": ("die3", lambda s: s["die3"].update(flags=["no-peak"])),
    "cli_sweep": ("chirp", lambda s: s["chirp"]["map_counts"][0].__setitem__(
        0, s["chirp"]["map_counts"][0][0] + 1)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(name, tmp_path):
    wl = WORKLOADS[name]
    reference = gate.load_reference(name, 0)
    assert reference is not None, "perfbench/reference.json lacks seed 0"
    inputs = wl.inputs(0, tmp_path)
    summary = copy.deepcopy(reference)
    assert not any(gate.gate(wl, inputs, summary, reference).values())
    unit, corrupt = CORRUPTIONS[name]
    corrupt(summary)
    failed = {u for u, why in gate.gate(wl, inputs, summary, reference).items() if why}
    assert failed == {unit}


def test_invariants_catch_corruption_without_a_reference(tmp_path):
    wl = WORKLOADS["cli_sweep"]
    summary = copy.deepcopy(gate.load_reference("cli_sweep", 0))
    summary["fi"]["exit"] = 1
    summary["ringdown"]["events"] = [[0.01, 0.02]]
    failed = {u for u, why in gate.gate(wl, wl.inputs(0, tmp_path), summary, None).items() if why}
    assert failed == {"fi", "ringdown"}


def test_reference_tolerance_separates_drift_from_breakage():
    assert gate.matches(220.0, 220.0 * (1 + 4e-10))
    assert not gate.matches(220.0, 220.0 * (1 + 1e-5))
    assert not gate.matches(3, 4)
    assert gate.matches(float("nan"), float("nan"))


def _plain(value) -> bool:
    if isinstance(value, dict):
        return all(_plain(v) for v in value.values())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return type(value) in (float, int, str, bool, type(None))


def test_generated_inputs_are_plain_and_explicit(tmp_path):
    points = WORKLOADS["ringdown"].inputs(7, tmp_path)["points"]
    population = WORKLOADS["population"].inputs(7, tmp_path)
    params = [p for p, _ in points] + [population["base"]]
    for p in params:
        assert all(type(getattr(p, f.name)) in (float, type(None)) for f in dataclasses.fields(p))
    with open(WORKLOADS["cli_sweep"].inputs(7, tmp_path)["config"]) as fh:
        doc = yaml.safe_load(fh)
    assert _plain(doc)
    assert set(doc["neuron"]) == {f.name for f in dataclasses.fields(rf.CircuitParams)}
    with pytest.raises(RuntimeError):
        workloads.explicit(rf.CircuitParams, {"C1": 1e-12})


def test_inputs_follow_the_seed(tmp_path):
    ringdown = WORKLOADS["ringdown"]
    assert ringdown.inputs(3, tmp_path) == ringdown.inputs(3, tmp_path)
    assert ringdown.inputs(3, tmp_path) != ringdown.inputs(4, tmp_path)
    cli = WORKLOADS["cli_sweep"]
    assert cli.inputs(3, tmp_path)["doc"] == cli.inputs(3, tmp_path)["doc"]
    assert cli.inputs(3, tmp_path)["doc"] != cli.inputs(4, tmp_path)["doc"]


def test_two_lane_calibration_stops_its_helper():
    cal = run.Calibrator(lanes=2, repeats=2)
    try:
        assert cal.measure() > 0.0
    finally:
        cal.close()
    assert not any(proc.is_alive() for _, proc in cal._lanes)
    assert all(proc.exitcode == 0 for _, proc in cal._lanes)


def test_calibration_helper_exits_when_its_parent_end_closes():
    cal = run.Calibrator(lanes=2, repeats=1)
    [(conn, proc)] = cal._lanes
    conn.close()  # as if the benchmark died without sending the stop request
    proc.join(timeout=30)
    assert proc.exitcode == 0
