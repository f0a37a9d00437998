"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a PASS line when the assertions hold (run with ``pytest -s`` to see
every line).  The expensive simulations are shared through module-scoped
fixtures; everything is deterministic, so the printed numbers are stable
across reruns.
"""

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest

from rfneuron import (
    CircuitParams,
    HandshakeConfig,
    IntegratorConfig,
    LinearizedRFState,
    NeuronState,
    derive_params,
    fi_curve,
    integrate,
    linearized_solution,
    lv_invariant,
    pulse,
    step,
    tuning_map,
)
from rfneuron.analysis import linear_fit
from rfneuron.cli import main as cli_main
from rfneuron.experiments import (
    ChirpSetup,
    FISetup,
    RingdownSetup,
    SweepSetup,
    run_bias_sweep,
    run_chirp,
    run_ringdown,
)
from rfneuron.montecarlo import MismatchModel, run_population
from rfneuron.stimuli import Polarity

# ---------------------------------------------------------------------------
# pinned tolerances
# ---------------------------------------------------------------------------
LINEARITY_MIN_R2 = 0.999
LINEARITY_INTERCEPT_FRAC = 0.02

BASELINE_TARGET = 0.724          # V
BASELINE_TOL = 5e-3              # V
F_RES_TARGET = 170.0             # Hz
F_RES_REL_TOL = 0.30
Q_TARGET = 129.0
Q_REL_TOL = 0.30

ONSET_WINDOW = (0.300, 0.500)    # V
ONSET_RATE_FRACTION = 0.50

RASTER_MIN_CONCENTRATION = 0.60

# max |H - H0| over 10 periods, relative to the orbit's excess invariant
# E0 = H0 - H(U*, V*), not to |H0|: H carries a unit-dependent log offset
LV_DRIFT_LIMIT = 1e-6
LV_RATIO_WINDOW = (12.0, 20.0)
# the fine-step drift must sit this many float64 ulps of |H0| above rounding
LV_FLOOR_ULPS = 100.0

LINEARIZATION_REL_TOL = 0.05

CV_FACTOR_BAND = 2.0
PAPER_CVS = {"baseline_U": 2.0, "f_res": 15.0, "q_factor": 68.0}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def params() -> CircuitParams:
    return CircuitParams()


@pytest.fixture(scope="module")
def ringdown_run(params):
    return run_ringdown(params)


@pytest.fixture(scope="module")
def raster_run(params):
    return run_chirp(params)


@pytest.fixture(scope="module")
def rhythmic_run(params):
    p = dataclasses.replace(params, V_th=0.840)
    prog = step(0.5, Polarity.EXC)
    cfg = IntegratorConfig(dt=1e-6, t_end=0.1, sample_stride=20)
    dp = derive_params(p)
    s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
    trace, events = integrate(s0, p, prog, cfg)
    return p, trace, events


def test_criterion_1_bias_frequency_linearity(params):
    t0 = time.perf_counter()
    rows = run_bias_sweep(params, SweepSetup())
    assert len(rows) == 15
    measured = [(r["I_A"], r["f_res_Hz"]) for r in rows if math.isfinite(r["f_res_Hz"])]
    assert len(measured) == 15, "no sweep point may drop out silently"
    fit = linear_fit(np.asarray([m[0] for m in measured]),
                     np.asarray([m[1] for m in measured]))
    intercept_ok = abs(fit["intercept_Hz"]) <= LINEARITY_INTERCEPT_FRAC * fit["midrange_Hz"]
    ok = fit["r_squared"] >= LINEARITY_MIN_R2 and intercept_ok
    # absolute endpoints only match the characterized device within 2.5x
    f_lo = measured[0][1]
    f_hi = measured[-1][1]
    report(
        "1 bias-frequency linearity", ok,
        f"R^2={fit['r_squared']:.6f} (>= {LINEARITY_MIN_R2}), "
        f"intercept={fit['intercept_Hz']:.3g} Hz vs midrange {fit['midrange_Hz']:.4g} Hz, "
        f"f_lo={f_lo:.2f} Hz ({f_lo / 6.0:.2f}x 6 Hz), "
        f"f_hi={f_hi:.1f} Hz ({f_hi / 2000.0:.2f}x 2000 Hz; each within 2.5x), "
        f"{time.perf_counter() - t0:.1f} s",
    )
    assert fit["r_squared"] >= LINEARITY_MIN_R2
    assert intercept_ok
    assert 1.0 / 2.5 <= f_lo / 6.0 <= 2.5
    assert 1.0 / 2.5 <= f_hi / 2000.0 <= 2.5


def test_criterion_2_calibrated_operating_point(params, ringdown_run):
    _, events, metrics = ringdown_run
    assert events == [], "the standard ringdown must stay subthreshold"
    baseline_ok = abs(metrics.baseline_U - BASELINE_TARGET) <= BASELINE_TOL
    f_ok = abs(metrics.f_res - F_RES_TARGET) <= F_RES_REL_TOL * F_RES_TARGET
    q_ok = abs(metrics.q_factor - Q_TARGET) <= Q_REL_TOL * Q_TARGET
    report(
        "2 calibrated operating point", baseline_ok and f_ok and q_ok,
        f"baseline_U={metrics.baseline_U * 1e3:.2f} mV (724 +- 5), "
        f"f_res={metrics.f_res:.2f} Hz (170 +- 30%), "
        f"Q={metrics.q_factor:.1f} (129 +- 30%)",
    )
    assert baseline_ok
    assert f_ok
    assert q_ok


def test_criterion_3_class_ii_discontinuity(params):
    t0 = time.perf_counter()
    setup = FISetup()
    p = dataclasses.replace(params, V_th=setup.V_th)
    rows = fi_curve(p, setup.levels(), spikes_per_point=setup.spikes_per_point,
                    timeout=setup.timeout)
    rates = [r for _, r, _ in rows]
    onset_idx = next(i for i, r in enumerate(rates) if r > 0.0)
    onset_level = rows[onset_idx][0]
    silent_below = all(r == 0.0 for r in rates[:onset_idx])
    onset_rate = rates[onset_idx]
    next_rate = rates[onset_idx + 1]
    jump_ok = onset_rate >= ONSET_RATE_FRACTION * next_rate
    window_ok = ONSET_WINDOW[0] <= onset_level <= ONSET_WINDOW[1]
    report(
        "3 class II discontinuity", silent_below and jump_ok and window_ok,
        f"onset at {onset_level * 1e3:.0f} mV (window 300-500), "
        f"rate {onset_rate:.1f} Hz vs next level {next_rate:.1f} Hz, "
        f"{time.perf_counter() - t0:.1f} s",
    )
    assert silent_below
    assert jump_ok
    assert window_ok
    # above onset the rate keeps growing (monotone section of the curve)
    upper = rates[onset_idx:]
    assert all(a <= b + 1e-9 for a, b in zip(upper, upper[1:]))


def test_criterion_4_frequency_selectivity(params, ringdown_run, raster_run):
    _, _, metrics = ringdown_run
    _, events, prog = raster_run
    blocks = prog.freq_blocks
    freqs = [b.frequency for b in blocks]
    nearest = int(np.argmin([abs(f - metrics.f_res) for f in freqs]))
    starts = np.asarray([b.t_start for b in blocks])
    counts = np.zeros(len(blocks), dtype=int)
    for e in events:
        j = int(np.searchsorted(starts, e.t_req, side="right")) - 1
        counts[min(max(j, 0), len(blocks) - 1)] += 1
    total = int(counts.sum())
    inband = int(counts[max(nearest - 1, 0):nearest + 2].sum())
    concentration = inband / total if total else 0.0
    conc_ok = concentration >= RASTER_MIN_CONCENTRATION

    t0 = time.perf_counter()
    setup = ChirpSetup()
    tm = tuning_map(params, setup.bias_levels(), setup.vth_schedule(), prog)
    detected = [tm.detected_frequency(i) for i in range(len(tm.bias_levels))]
    present = [f for f in detected if f is not None]
    monotone = all(a <= b for a, b in zip(present, present[1:]))
    report(
        "4 frequency selectivity", conc_ok and monotone,
        f"{inband}/{total} spikes ({100 * concentration:.1f}%) within +-1 block of "
        f"{freqs[nearest]:.1f} Hz; map argmax {['%.0f' % f for f in present]} "
        f"non-decreasing={monotone}, map {time.perf_counter() - t0:.1f} s",
    )
    assert conc_ok
    assert monotone
    assert len(present) >= 2


def test_criterion_5_lv_conservation():
    # An 80 mV displacement makes the orbit clearly nonlinear (a*dU ~ 0.9,
    # V stays below V_th), so RK4's O(dt^4) invariant error dominates.  The
    # steps period/400 and /800 keep that error far above the float64
    # rounding floor; both runs are sampled on the same 100-per-period grid.
    p = dataclasses.replace(CircuitParams(), g_damp=0.0, I_n0_beta=None)
    dp = derive_params(p)
    period = 1.0 / dp.f_res
    s0 = NeuronState(t=0.0, U=dp.U_star - 0.08, V=dp.V_star)
    prog = step(0.0, Polarity.EXC)
    h0 = lv_invariant(s0, p, 0.0)
    e0 = h0 - lv_invariant(NeuronState(t=0.0, U=dp.U_star, V=dp.V_star), p, 0.0)
    floor = LV_FLOOR_ULPS * np.finfo(float).eps * abs(h0) / e0

    def relative_drift(steps_per_period):
        cfg = IntegratorConfig(dt=period / steps_per_period, t_end=10.0 * period,
                               sample_stride=steps_per_period // 100)
        trace, events = integrate(s0, p, prog, cfg)
        assert events == [], "the conservation orbit must stay subthreshold"
        h = np.asarray([
            lv_invariant(NeuronState(t=float(t), U=float(u), V=float(v)), p, 0.0)
            for t, u, v in zip(trace.t, trace.U, trace.V)
        ])
        return float(np.max(np.abs(h - h0)) / e0)

    coarse, fine = 400, 800
    drift = relative_drift(coarse)
    drift_half = relative_drift(fine)
    ratio = drift / drift_half
    above_floor = drift_half >= floor
    ok = (above_floor and drift < LV_DRIFT_LIMIT
          and LV_RATIO_WINDOW[0] < ratio < LV_RATIO_WINDOW[1])
    report(
        "5 LV conservation", ok,
        f"drift/E0 over 10 periods {drift:.3e} at period/{coarse}, "
        f"{drift_half:.3e} at period/{fine} (< 1e-6), "
        f"halving ratio {ratio:.2f} (in 12..20), "
        f"fine drift {drift_half / floor:.3g}x the rounding floor {floor:.1e}",
    )
    assert above_floor, (
        f"fine-step drift {drift_half:.3e} is below the rounding floor {floor:.3e}: "
        "the halving ratio would measure float64 noise, not the RK4 order"
    )
    assert drift < LV_DRIFT_LIMIT
    assert LV_RATIO_WINDOW[0] < ratio < LV_RATIO_WINDOW[1]


def test_criterion_6_linearization_agreement():
    # symmetric biases make the voltage-space linearization exactly the
    # two-variable rotation-with-decay model
    p = dataclasses.replace(CircuitParams(), I_n0_beta=None)
    dp = derive_params(p)
    displacement = 1e-3
    s0 = NeuronState(t=0.0, U=dp.U_star + displacement, V=dp.V_star)
    period = 1.0 / dp.f_res
    cfg = IntegratorConfig(dt=period / 5000, t_end=period, sample_stride=10)
    trace, _ = integrate(s0, p, step(0.0, Polarity.EXC), cfg)
    x0 = LinearizedRFState(u=displacement, v=0.0, I=0.0, c=0.0)
    err = 0.0
    for t, u in zip(trace.t, trace.U):
        lin = linearized_solution(x0, dp, float(t))
        err = max(err, abs(float(u) - (dp.U_star + lin.u)))
    rel = err / displacement
    ok = rel <= LINEARIZATION_REL_TOL
    report(
        "6 linearization agreement", ok,
        f"max |nonlinear - linearized| = {rel * 100:.2f}% of the 1 mV "
        f"displacement over one period (<= 5%)",
    )
    assert ok


def _check_protocol(trace, events, p):
    violations = []
    for e in events:
        inside = (trace.t >= e.t_req) & (trace.t < e.t_release)
        if not np.all(trace.clamped[inside]):
            violations.append(f"unclamped sample during event {e.index}")
        if not (np.all(trace.U[inside] == p.V_reset)
                and np.all(trace.V[inside] == p.V_th)):
            violations.append(f"clamp voltages drifted during event {e.index}")
        if not np.all(trace.I_in[inside] == 0.0):
            violations.append(f"synaptic current leaked during event {e.index}")
    for a, b in zip(events, events[1:]):
        if b.t_req < a.t_release:
            violations.append(f"events {a.index}/{b.index} overlap")
        if not b.t_req >= a.t_release:
            violations.append(f"event {b.index} asserted inside the previous handshake")
    return violations


def test_criterion_7_handshake_invariants(params, ringdown_run, raster_run, rhythmic_run):
    all_violations = []
    runs = 0
    trace, events, _ = ringdown_run
    all_violations += _check_protocol(trace, events, params)
    runs += 1
    trace, events, _ = raster_run
    all_violations += _check_protocol(trace, events, params)
    runs += 1
    p_fi, trace, events = rhythmic_run
    all_violations += _check_protocol(trace, events, p_fi)
    runs += 1
    ok = not all_violations
    report(
        "7 handshake invariants", ok,
        f"0 violations across {runs} experiment runs"
        if ok else f"violations: {all_violations[:3]}",
    )
    assert not all_violations


def test_criterion_8_variability_ordering(params):
    t0 = time.perf_counter()
    setup = dataclasses.replace(RingdownSetup(), amplitude=0.4)
    stats = run_population(params, MismatchModel(), 100, setup)
    cvs = {m: stats.cv_percent(m) for m in ("baseline_U", "f_res", "q_factor")}
    ordering = cvs["baseline_U"] < cvs["f_res"] < cvs["q_factor"]
    factor2 = all(
        1.0 / CV_FACTOR_BAND <= cvs[m] / PAPER_CVS[m] <= CV_FACTOR_BAND
        for m in cvs
    )
    report(
        "8 variability ordering", ordering and factor2,
        f"CV baseline={cvs['baseline_U']:.2f}% < f_res={cvs['f_res']:.2f}% "
        f"< Q={cvs['q_factor']:.2f}% (characterized device: 2/15/68, "
        f"within 2x), {time.perf_counter() - t0:.0f} s for 100 dies",
    )
    assert ordering
    assert factor2


FAST_DET_CONFIG = """
integrator: {dt: 2.0e-06, t_end: 0.05, sample_stride: 25}
ringdown:
  horizon: 0.05
  settle_window: 0.01
  integrator: {dt: 2.0e-06, t_end: 0.05, sample_stride: 25}
fi: {n_levels: 3, level_min: 0.40, level_max: 0.46, spikes_per_point: 8, timeout: 0.08}
chirp: {n_freqs: 3, spikes_per_freq: 4, f_start: 180.0, f_end: 260.0, n_bias: 2, bias_max: 1.3e-10}
sweep: {n_points: 3, I_min: 8.0e-11, I_max: 4.0e-10}
montecarlo:
  n_dies: 3
  model: {seed: 11}
"""


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "det.yaml"
    cfg_path.write_text(FAST_DET_CONFIG)
    commands = ["ringdown", "fi", "chirp", "sweep-bias", "montecarlo"]
    mismatched = []
    for cmd in commands:
        out_a = tmp_path / f"{cmd}-a"
        out_b = tmp_path / f"{cmd}-b"
        argv = [cmd, "--config", str(cfg_path)]
        if cmd == "chirp":
            argv.append("--full-map")
        assert cli_main(argv + ["--outdir", str(out_a)]) == 0
        assert cli_main(argv + ["--outdir", str(out_b)]) == 0
        names = sorted(f.name for f in out_a.iterdir())
        assert names == sorted(f.name for f in out_b.iterdir())
        for name in names:
            if not filecmp.cmp(out_a / name, out_b / name, shallow=False):
                mismatched.append(f"{cmd}/{name}")
    ok = not mismatched
    report(
        "9 determinism", ok,
        f"all outputs byte-identical across reruns of {len(commands)} subcommands"
        if ok else f"differing files: {mismatched}",
    )
    assert not mismatched
