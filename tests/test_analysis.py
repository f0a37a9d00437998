"""Ringdown metrics validated against synthetic traces with known answers."""

import dataclasses
import json
import math
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfneuron import (
    AckMode,
    CircuitParams,
    HandshakeConfig,
    IntegratorConfig,
    NeuronState,
    ProtocolError,
    Trace,
    UndefinedMetricError,
    derive_params,
    experiments,
    fi_curve,
    integrate,
    linear_fit,
    spiking_chirp,
    step,
    tuning_map,
)
from rfneuron import MismatchModel, analysis, sample_die
from rfneuron.analysis import (
    FREQ_CONSISTENCY_TOL,
    MAX_LANES,
    PEAK_MIN_PROMINENCE,
    MetricsRecord,
    TuningMap,
    _baseline,
    _fft_peak_frequency,
    _frequency_estimates,
    _hann,
    _line,
    _median,
    _post_stimulus,
    _prominent,
    _q_factor,
    _refine,
    _require_finite,
    _require_free,
    _smooth_length,
    _turns,
    map_lanes,
    ringdown_metrics,
)
from rfneuron.cli import write_csv, write_json
from rfneuron.experiments import (
    RingdownSetup, SweepSetup, run_bias_sweep, run_chirp, run_ringdown,
)
from rfneuron.stimuli import Polarity


def synthetic_ringdown(f=170.0, q=129.0, baseline=0.75, amp=0.05,
                       t0=2e-3, duration=None, fs=None, phase=0.0):
    """Damped cosine with exactly known frequency, Q, baseline and peak."""
    if duration is None:
        # long enough for >= 12 cycles and a noticeable envelope decay
        duration = max(14.0 / f, 0.35 * q / f)
    if fs is None:
        fs = 400.0 * f
    t = np.arange(0.0, duration, 1.0 / fs)
    tau = q / (math.pi * f)
    x = np.where(
        t >= t0,
        baseline + amp * np.exp(-(t - t0) / tau) * np.cos(2 * math.pi * f * (t - t0) + phase),
        baseline,
    )
    n = len(t)
    return Trace(
        t=t, U=x.copy(), V=x.copy(), I_in=np.zeros(n),
        clamped=np.zeros(n, dtype=bool), overflow=np.zeros(n, dtype=bool),
    )


def search(x, min_prominence):
    """The peak search of ``x`` alone: a candidate pass of its own, then the prominence test."""
    return _prominent(x, _turns(x), min_prominence)


def refined_peaks(t, x):
    """The prominent local maxima of ``x``, searched alone and refined."""
    return _refine(t, [(x, search(x, PEAK_MIN_PROMINENCE), 1)])[0]


def first_peaks_alone(tr, t_stim_end):
    """U's and V's first peak, each the first peak of a search of the post-stimulus window alone."""
    lo, hi = _post_stimulus(tr, t_stim_end)
    groups = []
    for x in (tr.U, tr.V):
        _require_finite(x[lo:hi])
        i = search(x[lo:hi], PEAK_MIN_PROMINENCE)[:1] + lo
        if len(i) == 0:
            raise UndefinedMetricError("no local maximum after the stimulus")
        groups.append((x, i, 1))
    (_, u), (_, v) = _refine(tr.t, groups)
    return float(u[0]), float(v[0])


def frequency_alone(tr):
    """(inter-peak, spectral) frequency of V, its peaks searched alone."""
    _require_free(tr)
    return _frequency_estimates(tr.t, tr.V, refined_peaks(tr.t, tr.V))


def q_alone(tr):
    """Q of V, its peaks and its troughs (the peaks of -V) each searched alone."""
    _require_free(tr)
    return _q_factor(refined_peaks(tr.t, tr.V), refined_peaks(tr.t, -tr.V))


def metrics_alone(tr, t_stim_end, settle_window):
    """The ``ringdown_metrics`` record with each metric searched alone, as its oracle."""
    flags = []
    baseline_U = baseline_V = first_peak_U = first_peak_V = f_res = q = math.nan
    try:
        baseline_U, baseline_V = _baseline(tr, settle_window)
    except UndefinedMetricError:
        flags.append("baseline-undefined")
    try:
        first_peak_U, first_peak_V = first_peaks_alone(tr, t_stim_end)
    except UndefinedMetricError:
        flags.append("no-peak")
    try:
        f_res, f_fft = frequency_alone(tr)
        if abs(f_res - f_fft) > FREQ_CONSISTENCY_TOL * f_res:
            flags.append("freq-estimators-disagree")
    except UndefinedMetricError:
        flags.append("f-res-undefined")
    try:
        q = q_alone(tr)
        if math.isinf(q):
            flags.append("infinite-q")
    except UndefinedMetricError:
        flags.append("q-undefined")
    if tr.any_overflow:
        flags.append("overflow")
    return MetricsRecord(baseline_U, baseline_V, first_peak_U, first_peak_V, f_res, q,
                         tuple(flags))


def metrics(tr, t_stim_end=2e-3):
    """``ringdown_metrics`` of ``tr`` with a settle window of its last fifth."""
    return ringdown_metrics(tr, t_stim_end, tr.t[-1] / 5)


class TestExtractBaseline:
    def test_constant_trace(self):
        m = metrics(synthetic_ringdown(amp=0.0))
        assert m.baseline_U == pytest.approx(0.75, rel=1e-12)
        assert m.baseline_V == pytest.approx(0.75, rel=1e-12)

    def test_equilibrium_run_recovers_star_point(self):
        p = CircuitParams()
        dp = derive_params(p)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.02, sample_stride=50)
        s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
        tr, _ = integrate(s0, p, step(0.0, Polarity.EXC), cfg)
        m = ringdown_metrics(tr, 0.0, 5e-3)
        assert m.baseline_U == pytest.approx(dp.U_star, abs=1e-9)
        assert m.baseline_V == pytest.approx(dp.V_star, abs=1e-9)

    def test_residual_ring_bounds_the_error(self):
        eps = 1e-3
        tr = synthetic_ringdown(amp=eps, q=1e5)  # essentially undamped tail
        m = ringdown_metrics(tr, 2e-3, settle_window=tr.t[-1] / 4)
        assert abs(m.baseline_U - 0.75) < eps

    def test_window_larger_than_trace_rejected(self):
        tr = synthetic_ringdown()
        with pytest.raises(ValueError):
            ringdown_metrics(tr, 2e-3, settle_window=10 * tr.t[-1])

    def test_window_larger_than_trace_is_no_flag(self, monkeypatch):
        # a caller error propagates before any search, with no numpy warning; only an
        # undefined metric becomes a flag
        tr = synthetic_ringdown(duration=0.05)
        passes = []
        monkeypatch.setattr(analysis, "_turns", spy(analysis._turns, passes))
        for t_stim_end, settle_window, match in [
            (1.1e-3, 10.0, "exceeds trace span"),
            (1.1e-3, math.nan, "settle_window must be positive"),
            (math.nan, 0.01, "t_stim_end must be finite"),
            (math.inf, 0.01, "t_stim_end must be finite"),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=match) as info:
                    ringdown_metrics(tr, t_stim_end, settle_window)
            assert "np." not in str(info.value)  # plain floats, not numpy reprs
        assert passes == []

    @pytest.mark.parametrize("column, value", [("U", math.nan), ("V", math.inf)])
    def test_non_finite_sample_in_window_rejected(self, column, value):
        tr = synthetic_ringdown()
        getattr(tr, column)[-3] = value
        with pytest.raises(UndefinedMetricError, match="non-finite"):
            _baseline(tr, settle_window=tr.t[-1] / 5)
        m = metrics(tr)
        assert "baseline-undefined" in m.flags
        assert math.isnan(m.baseline_U) and math.isnan(m.baseline_V)


class TestExtractFirstPeak:
    def test_known_first_peak_recovered(self):
        # phase -pi/2 starts the oscillation on a rising zero crossing, so
        # the first maximum sits a quarter period after the stimulus end
        # with the envelope decayed by exp(-pi / (4 q))
        f, q, amp = 170.0, 129.0, 0.04
        tr = synthetic_ringdown(f=f, q=q, baseline=0.75, amp=amp, t0=2e-3,
                                phase=-math.pi / 2)
        expected = 0.75 + amp * math.exp(-math.pi / (4 * q))
        m = metrics(tr, t_stim_end=2e-3)
        assert m.first_peak_U == pytest.approx(expected, abs=2e-4)
        assert m.first_peak_V == pytest.approx(expected, abs=2e-4)

    def test_constant_trace_has_no_peak(self):
        m = metrics(synthetic_ringdown(amp=0.0), t_stim_end=1e-3)
        assert "no-peak" in m.flags
        assert math.isnan(m.first_peak_U) and math.isnan(m.first_peak_V)

    def test_monotone_tail_has_no_peak(self):
        t = np.linspace(0, 1, 2000)
        x = 0.7 - 0.01 * t
        tr = Trace(t=t, U=x, V=x, I_in=np.zeros_like(t),
                   clamped=np.zeros_like(t, dtype=bool),
                   overflow=np.zeros_like(t, dtype=bool))
        m = metrics(tr, t_stim_end=0.0)
        assert "no-peak" in m.flags
        assert math.isnan(m.first_peak_U) and math.isnan(m.first_peak_V)

    # V rises towards the threshold and the handshake clamps it, holding U at the
    # reset level; the free samples after the release ring on
    RISE = [0.70, 0.72, 0.74, 0.76, 0.78, 0.80]
    HELD = [0.75, 0.75, 0.75]
    RING = [0.75, 0.76, 0.77, 0.765, 0.76, 0.755, 0.75]

    @staticmethod
    def held_trace(before, held, after):
        x = np.asarray(before + held + after)
        n = len(x)
        clamped = np.zeros(n, dtype=bool)
        clamped[len(before):len(before) + len(held)] = True
        return Trace(t=np.arange(n) * 1e-4, U=x.copy(), V=x.copy(), I_in=np.zeros(n),
                     clamped=clamped, overflow=np.zeros(n, dtype=bool))

    def test_the_first_clamped_sample_ends_the_window(self):
        # joining the rise to the release would read its last sample, a spike
        # artefact, as the first peak
        tr = self.held_trace(self.RISE, self.HELD, self.RING)
        with pytest.raises(UndefinedMetricError):
            first_peaks_alone(tr, t_stim_end=0.0)
        m = ringdown_metrics(tr, t_stim_end=0.0, settle_window=2e-4)
        assert "no-peak" in m.flags
        assert math.isnan(m.first_peak_U) and math.isnan(m.first_peak_V)

    def test_a_peak_before_the_first_hold_is_read_as_without_the_hold(self):
        before = [0.70, 0.75, 0.73, 0.76, 0.80]
        tr = self.held_trace(before, self.HELD, self.RING)
        free = self.held_trace(before, [], [])
        held, alone = (ringdown_metrics(x, 0.0, settle_window=1e-4) for x in (tr, free))
        assert (held.first_peak_U, held.first_peak_V) == (alone.first_peak_U, alone.first_peak_V)
        assert held.first_peak_U == pytest.approx(0.75, abs=0.01)

    def test_criterion_8_die_that_fired_has_no_first_peak(self):
        # die 27 of the default population spikes 55 times; between the
        # stimulus end and its first hold the ringdown has not turned yet
        setup = dataclasses.replace(RingdownSetup(), amplitude=0.4)
        tr, events, m = run_ringdown(sample_die(CircuitParams(), MismatchModel(), 27), setup)
        assert len(events) == 55
        assert m.flags == ("baseline-undefined", "no-peak", "f-res-undefined", "q-undefined")
        assert math.isnan(m.first_peak_U) and math.isnan(m.first_peak_V)


PROMINENCES = (0.0, PEAK_MIN_PROMINENCE, 5.0 * PEAK_MIN_PROMINENCE)

# small integers in steps of the detection floor give plateaus, flat edges and
# prominences that land exactly on the threshold
_stepped = st.lists(st.integers(0, 4), max_size=60).map(
    lambda xs: np.asarray(xs, dtype=float) * PEAK_MIN_PROMINENCE)
_smooth = st.lists(st.floats(-1e-3, 1e-3), max_size=60).map(
    lambda xs: np.asarray(xs, dtype=float))


# a tall peak and a shoulder on its flank: the valley between them is high, so
# the neighbouring-gap bound decides neither; only the tall peak is prominent
SHOULDER = np.array([0.0, 10.0, 9.5, 9.6, 0.0]) * PEAK_MIN_PROMINENCE


def far_higher_neighbour(bump):
    """A bump whose nearest higher peaks lie three peaks away on either side.

    Its neighbouring valleys (0.5 and 0.6) sit far above its lowest
    reaches (0.0 to the left, 0.2 to the right), so its prominence is
    ``bump - 0.2``, all in units of the detection floor.
    """
    return np.array([1.0, 20.0, 0.0, 0.9, 0.3, 1.0, 0.5, bump, 0.6, 1.1, 0.2, 0.9, 0.4, 20.0,
                     1.0]) * PEAK_MIN_PROMINENCE


def spy(fn, calls):
    """``fn``, appending its arguments to ``calls`` on each call."""
    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped


@pytest.fixture(scope="module")
def reference_find_peaks():
    """scipy's peak finder, the oracle; scipy is a test dependency, and without it this fails."""
    from scipy.signal import find_peaks
    return find_peaks


@pytest.fixture(scope="module")
def default_traces():
    ringdown, _, _ = run_ringdown(CircuitParams())
    chirp, _, _ = run_chirp(CircuitParams())
    return {"ringdown": ringdown, "chirp": chirp}


class TestFindPeaks:
    @settings(max_examples=400, deadline=None)
    @given(x=st.one_of(_stepped, _smooth))
    def test_matches_reference_on_random_arrays(self, reference_find_peaks, x):
        for prominence in PROMINENCES:
            expected = reference_find_peaks(x, prominence=prominence)[0]
            np.testing.assert_array_equal(search(x, prominence), expected)

    @pytest.mark.parametrize("x", [[], [1.0], [1.0, 2.0], [2.0, 1.0], [0.5] * 7],
                             ids=["empty", "one", "two-rising", "two-falling", "constant"])
    def test_short_and_constant_arrays_have_no_peak(self, reference_find_peaks, x):
        x = np.asarray(x, dtype=float)
        for prominence in PROMINENCES:
            assert len(reference_find_peaks(x, prominence=prominence)[0]) == 0
            assert len(search(x, prominence)) == 0

    def test_plateau_counts_at_its_middle_and_not_at_an_edge(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0])
        np.testing.assert_array_equal(search(x, 0.0), [2])

    @pytest.mark.parametrize("name", ["ringdown", "chirp"])
    def test_matches_reference_on_default_traces(self, reference_find_peaks,
                                                 default_traces, name):
        tr = default_traces[name]
        for x in (tr.U, tr.V, -tr.U, -tr.V):
            expected = reference_find_peaks(x, prominence=PEAK_MIN_PROMINENCE)[0]
            assert len(expected) > 10
            np.testing.assert_array_equal(search(x, PEAK_MIN_PROMINENCE), expected)

    @pytest.mark.parametrize("x, expected", [
        (SHOULDER, [1]),
        (far_higher_neighbour(1.21), [1, 7, 13]),
        (far_higher_neighbour(1.19), [1, 13]),
    ], ids=["shoulder", "bump-just-above", "bump-just-below"])
    def test_peaks_the_gap_bound_leaves_undecided(self, reference_find_peaks,
                                                  monkeypatch, x, expected):
        stack_passes = []
        monkeypatch.setattr(analysis, "_lowest_back_to_higher",
                            spy(analysis._lowest_back_to_higher, stack_passes))
        np.testing.assert_array_equal(reference_find_peaks(x, prominence=PEAK_MIN_PROMINENCE)[0],
                                      expected)
        np.testing.assert_array_equal(search(x, PEAK_MIN_PROMINENCE), expected)
        assert len(stack_passes) == 2  # the bound decided no search; the exact pass ran

    @pytest.mark.parametrize("x, undecided", [
        # a small first bump beside the array start
        ([0.3, 0.5, 0.0, 10.0, 0.0, 15.0, 0.0, 20.0, 0.0], [0]),
        # a decaying ringdown whose last partial cycle ends above its trough
        ([0.0, 20.0, 0.0, 15.0, 0.0, 10.0, 0.0, 0.5, 0.3], [3]),
        # a rising run of shallow tops above the clean tops before it: the pass stops there
        ([0.0, 30.0, 0.0, 2.0, 0.0, 3.0, 0.0, 5.0, 4.4, 5.5, 4.9, 6.0, 5.4, 6.5, 0.0],
         [3, 4, 5]),
        # a middle run of tops whose nearest higher tops lie three tops away
        (far_higher_neighbour(1.21) / PEAK_MIN_PROMINENCE, [1, 2, 3, 4, 5]),
    ], ids=["first", "last", "rising-run", "middle-run"])
    def test_exact_pass_settles_only_the_undecided_tops(self, reference_find_peaks,
                                                         monkeypatch, x, undecided):
        passes = []
        monkeypatch.setattr(analysis, "_lowest_back_to_higher",
                            spy(analysis._lowest_back_to_higher, passes))
        x = np.asarray(x) * PEAK_MIN_PROMINENCE
        np.testing.assert_array_equal(search(x, PEAK_MIN_PROMINENCE),
                                      reference_find_peaks(x, prominence=PEAK_MIN_PROMINENCE)[0])
        # one pass each way, over the tops from the first undecided one to the last
        assert [len(heights) for heights, _ in passes] == [len(undecided)] * 2

    def test_gap_bound_decides_a_clean_ringdown(self, reference_find_peaks, monkeypatch):
        stack_passes = []
        monkeypatch.setattr(analysis, "_lowest_back_to_higher",
                            spy(analysis._lowest_back_to_higher, stack_passes))
        x = synthetic_ringdown().V
        expected = reference_find_peaks(x, prominence=PEAK_MIN_PROMINENCE)[0]
        assert len(expected) > 10
        np.testing.assert_array_equal(search(x, PEAK_MIN_PROMINENCE), expected)
        assert stack_passes == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_makes_every_peak_metric_undefined(self, bad):
        tr = synthetic_ringdown()
        tr.U[len(tr) // 2] = tr.V[len(tr) // 2] = bad
        with pytest.raises(UndefinedMetricError, match="non-finite"):
            frequency_alone(tr)
        m = ringdown_metrics(tr, t_stim_end=2e-3, settle_window=tr.t[-1] / 5)
        assert {"no-peak", "f-res-undefined", "q-undefined"} <= set(m.flags)
        assert math.isnan(m.first_peak_V) and math.isnan(m.f_res) and math.isnan(m.q_factor)


def first_peak_walk(x, lo, prominence):
    """The first-peak walk over the window ``x[lo:]``, on the candidate pass of all of ``x``."""
    return _prominent(x, _turns(x), prominence, lo, first=True)


# an array with a start index of its window: every start, the array end included
_windows = st.one_of(_stepped, _smooth).flatmap(
    lambda x: st.tuples(st.just(x), st.integers(0, len(x))))

# a flat top that a window starting at 2 cuts: in x it is a peak, in the window none
MID_PLATEAU = np.array([0.0, 3.0, 3.0, 3.0, 3.0, 1.0, 2.0, 0.0]) * PEAK_MIN_PROMINENCE
# a clean, prominent peak ahead of a shoulder that the gap bound leaves undecided
CLEAN_THEN_SHOULDER = np.concatenate(([0.0, 5.0 * PEAK_MIN_PROMINENCE], SHOULDER))


class TestCandidatePass:
    """One candidate pass per channel serves its first peak, its peaks and its troughs."""

    @settings(max_examples=400, deadline=None)
    @given(window=_windows)
    @example(window=(MID_PLATEAU, 2))
    @example(window=(far_higher_neighbour(1.21), 2))
    @example(window=(CLEAN_THEN_SHOULDER, 0))
    def test_first_peak_walk_matches_the_search_of_the_window(self, reference_find_peaks, window):
        x, lo = window
        for prominence in PROMINENCES:
            expected = reference_find_peaks(x[lo:], prominence=prominence)[0][:1] + lo
            np.testing.assert_array_equal(search(x[lo:], prominence)[:1] + lo, expected)
            np.testing.assert_array_equal(first_peak_walk(x, lo, prominence), expected)

    @pytest.mark.parametrize("x, lo, expected", [
        ([0.0, 1.0, 1.0, 1.0, 0.0], 0, [2]),
        ([1.0, 1.0, 1.0, 0.0, 2.0, 0.0], 0, [4]),
        ([0.0, 2.0, 0.0, 1.0, 1.0, 1.0], 0, [1]),
        ([0.0, 2.0, 0.0, 2.0, 0.0], 0, [1]),
        ([0.0, 2.0, 0.0, 2.0, 0.0], 2, [3]),
        (MID_PLATEAU / PEAK_MIN_PROMINENCE, 0, [2]),
        (MID_PLATEAU / PEAK_MIN_PROMINENCE, 2, [6]),
        (MID_PLATEAU / PEAK_MIN_PROMINENCE, 3, [6]),
        (SHOULDER / PEAK_MIN_PROMINENCE, 0, [1]),
        (SHOULDER / PEAK_MIN_PROMINENCE, 2, []),
        (far_higher_neighbour(1.21) / PEAK_MIN_PROMINENCE, 2, [7]),
        (far_higher_neighbour(1.19) / PEAK_MIN_PROMINENCE, 2, [13]),
    ], ids=["plateau", "plateau-at-the-start", "plateau-at-the-end", "tie", "tie-second",
            "plateau-in-x", "window-starts-mid-plateau", "window-starts-on-the-plateau-end",
            "shoulder", "shoulder-alone", "undecided-bump-just-above",
            "undecided-bump-just-below"])
    def test_first_peak_of_a_window(self, reference_find_peaks, x, lo, expected):
        x = np.asarray(x, dtype=float) * PEAK_MIN_PROMINENCE
        assert list(reference_find_peaks(x[lo:], prominence=PEAK_MIN_PROMINENCE)[0][:1] + lo) \
            == expected
        assert list(first_peak_walk(x, lo, PEAK_MIN_PROMINENCE)) == expected

    def test_walk_stops_at_the_first_peak_the_bound_decides(self, monkeypatch):
        # the full search must settle the shoulder exactly; the walk stops before it
        stack_passes = []
        monkeypatch.setattr(analysis, "_lowest_back_to_higher",
                            spy(analysis._lowest_back_to_higher, stack_passes))
        x = CLEAN_THEN_SHOULDER
        assert list(first_peak_walk(x, 0, PEAK_MIN_PROMINENCE)) == [1]
        assert stack_passes == []
        assert list(search(x, PEAK_MIN_PROMINENCE)) == [1, 3]
        assert len(stack_passes) == 2

    @settings(max_examples=400, deadline=None)
    @given(window=_windows)
    @example(window=(far_higher_neighbour(1.21), 0))
    @example(window=(-far_higher_neighbour(1.19), 0))
    @example(window=(-MID_PLATEAU, 2))
    def test_joint_pass_matches_two_searches(self, reference_find_peaks, window):
        x, lo = window
        turns = _turns(x)
        for prominence in PROMINENCES:
            peaks = _prominent(x, turns, prominence)
            troughs = _prominent(x, turns, prominence, sign=-1)
            np.testing.assert_array_equal(peaks, search(x, prominence))
            np.testing.assert_array_equal(troughs, search(-x, prominence))
            np.testing.assert_array_equal(troughs,
                                          reference_find_peaks(-x, prominence=prominence)[0])
            np.testing.assert_array_equal(_prominent(x, turns, prominence, lo, sign=-1),
                                          search(-x[lo:], prominence) + lo)

    @pytest.mark.parametrize("name", ["ringdown", "chirp"])
    def test_joint_pass_matches_two_searches_on_default_traces(self, reference_find_peaks,
                                                               default_traces, name):
        tr = default_traces[name]
        for x in (tr.U, tr.V):
            turns = _turns(x)
            for sign in (1, -1):
                expected = reference_find_peaks(sign * x, prominence=PEAK_MIN_PROMINENCE)[0]
                assert len(expected) > 10
                np.testing.assert_array_equal(
                    _prominent(x, turns, PEAK_MIN_PROMINENCE, sign=sign), expected)


def reference_refined_peaks(t, x):
    """The per-peak scalar refinement that ``_refine`` runs array-wise, as its oracle.

    numpy scalars warn where Python floats overflow silently, so the loop
    runs with numpy's floating-point warnings off.
    """
    with np.errstate(all="ignore"):
        idx = search(x, PEAK_MIN_PROMINENCE)
        times, values = [], []
        for i in idx:
            if 0 < i < len(x) - 1:
                y0, y1, y2 = x[i - 1], x[i], x[i + 1]
                denom = y0 - 2.0 * y1 + y2
                delta = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
                delta = min(max(delta, -0.5), 0.5)
                dt_l = t[i] - t[i - 1]
                dt_r = t[i + 1] - t[i]
                ts = t[i] + delta * (dt_r if delta >= 0 else dt_l)
                vs = y1 - 0.25 * (y0 - y2) * delta
                cap = 0.5 * min(y1 - y0, y1 - y2)
                if vs - y1 > max(cap, 0.0):
                    vs = y1 + max(cap, 0.0)
            else:
                ts, vs = t[i], x[i]
            times.append(float(ts))
            values.append(float(vs))
    return np.asarray(times), np.asarray(values)


def assert_same_floats(a, b):
    """Equal arrays of float64, bit for bit (the sign of a zero included), NaN where NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    np.testing.assert_array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


_HUGE = 1.7e308
# magnitudes near the top of the float range overflow the fit to inf and nan
_huge = st.lists(st.sampled_from([-_HUGE, -1e308, 0.0, 1e308, _HUGE]), max_size=30).map(
    lambda xs: np.asarray(xs, dtype=float))
_finite = st.lists(st.floats(-_HUGE, _HUGE), max_size=30).map(
    lambda xs: np.asarray(xs, dtype=float))
# signed zeros beside a peak give a zero cap whose sign reaches the value
_zeros = st.lists(st.sampled_from([-0.0, 0.0, -2.0 * PEAK_MIN_PROMINENCE]), max_size=30).map(
    lambda xs: np.asarray(xs, dtype=float))


@st.composite
def _channels(draw):
    """A sampled channel: values of every kind above on unevenly spaced times."""
    x = draw(st.one_of(_stepped, _smooth, _huge, _finite, _zeros))
    gaps = draw(st.lists(st.floats(1e-6, 1e-3), min_size=len(x), max_size=len(x)))
    return np.cumsum(gaps), x


FLAT_TOP = np.array([0.0, 1.0, 1.0, 1.0, 0.0]) * PEAK_MIN_PROMINENCE        # denominator 0
KINK = np.array([0.0, 0.1, 2.0, 1.9, 1.8, 0.0]) * PEAK_MIN_PROMINENCE       # the cap fires
NEGATIVE_ZERO_TOP = np.array([-2.0 * PEAK_MIN_PROMINENCE, -0.0, 0.0, -2.0 * PEAK_MIN_PROMINENCE])


class TestChannelPeaks:
    @settings(max_examples=500, deadline=None)
    @given(channel=_channels())
    @example(channel=(np.arange(5.0), FLAT_TOP))
    @example(channel=(np.arange(6.0), KINK))
    @example(channel=(np.arange(4.0), NEGATIVE_ZERO_TOP))
    @example(channel=(np.arange(3.0), np.array([-_HUGE, _HUGE, -_HUGE])))
    @example(channel=(np.arange(3.0), np.array([1e308, _HUGE, -_HUGE])))
    def test_matches_the_scalar_refinement(self, channel):
        t, x = channel
        with np.errstate(all="ignore"):
            idx = search(x, PEAK_MIN_PROMINENCE)
        # every peak has both neighbours, so the fit needs no edge case
        assert np.all((0 < idx) & (idx < len(x) - 1))
        expected = reference_refined_peaks(t, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, values = refined_peaks(t, x)
        assert_same_floats(times, expected[0])
        assert_same_floats(values, expected[1])

    def test_flat_top_keeps_the_middle_sample(self):
        t = np.arange(5.0)
        assert_same_floats(refined_peaks(t, FLAT_TOP), ([2.0], [PEAK_MIN_PROMINENCE]))

    def test_kink_caps_the_vertex_by_the_shallower_side(self):
        t = np.arange(6.0)
        _, y1, y2 = KINK[1:4]
        times, values = refined_peaks(t, KINK)
        assert values[0] == y1 + 0.5 * (y1 - y2)
        assert 2.0 < times[0] <= 2.5  # the vertex leans to the higher neighbour

    def test_zero_cap_keeps_the_sign_of_a_negative_zero_peak(self):
        _, values = refined_peaks(np.arange(4.0), NEGATIVE_ZERO_TOP)
        assert values[0] == 0.0 and np.signbit(values[0])


class TestResonantFrequency:
    def test_170hz_oracle(self):
        assert metrics(synthetic_ringdown(f=170.0, q=129.0)).f_res == pytest.approx(170.0, rel=5e-3)

    @pytest.mark.parametrize("f", [10.0, 50.0, 170.0, 600.0, 2000.0])
    @pytest.mark.parametrize("q", [5.0, 50.0, 500.0])
    def test_estimator_consistency_grid(self, f, q):
        m = metrics(synthetic_ringdown(f=f, q=q, amp=0.03))
        assert m.f_res == pytest.approx(f, rel=0.02)
        assert m.q_factor == pytest.approx(q, rel=0.02)

    def test_two_estimators_agree(self):
        tr = synthetic_ringdown(f=300.0, q=80.0)
        f_peaks, f_fft = metrics(tr).f_res, _fft_peak_frequency(tr.t, tr.V)
        assert abs(f_peaks - f_fft) <= 0.02 * f_peaks

    def test_insufficient_peaks_undefined(self):
        m = metrics(synthetic_ringdown(amp=0.0))
        assert "f-res-undefined" in m.flags and math.isnan(m.f_res)

    def test_prime_length_trace_within_oracle(self):
        # 6007 is prime: the spectrum reads the last 6000 samples
        tr = synthetic_ringdown(f=170.0, q=129.0)
        n = 6007
        tr = Trace(t=tr.t[:n], U=tr.U[:n], V=tr.V[:n], I_in=tr.I_in[:n],
                   clamped=tr.clamped[:n], overflow=tr.overflow[:n])
        assert largest_prime_factor(n) == n and _smooth_length(n) == 6000
        assert _fft_peak_frequency(tr.t, tr.V) == pytest.approx(170.0, rel=1e-2)
        m = metrics(tr)
        assert "freq-estimators-disagree" not in m.flags

    def test_sampling_rate_insensitivity(self):
        f = 170.0
        a = metrics(synthetic_ringdown(f=f, fs=300 * f)).f_res
        b = metrics(synthetic_ringdown(f=f, fs=600 * f)).f_res
        assert abs(a - b) / a < 1e-3


def largest_prime_factor(n: int) -> int:
    p, last = 2, 1
    while p * p <= n:
        while n % p == 0:
            n, last = n // p, p
        p += 1
    return max(last, n)


class TestSpectrumLength:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(16, 10**5))
    def test_largest_5_smooth_length_not_above_n(self, n):
        m = _smooth_length(n)
        assert m <= n
        assert largest_prime_factor(m) <= 5
        assert all(largest_prime_factor(k) > 5 for k in range(m + 1, n + 1))

    @pytest.mark.parametrize("n, m", [(6001, 6000), (1201, 1200), (5986, 5832)])
    def test_known_lengths(self, n, m):
        assert _smooth_length(n) == m

    @pytest.mark.parametrize("m", [16, 1200, 6000])
    def test_cached_window_is_hanning_and_read_only(self, m):
        w = _hann(m)
        assert_same_floats(w, np.hanning(m))
        assert not w.flags.writeable
        assert _hann(m) is w

    def test_default_runs_transform_only_5_smooth_lengths(self, monkeypatch):
        # a length with a large prime factor takes the FFT's slow general-length path
        calls = []
        monkeypatch.setattr(np.fft, "rfft", spy(np.fft.rfft, calls))
        run_ringdown(CircuitParams())
        run_bias_sweep(CircuitParams(), SweepSetup(n_points=1))
        lengths = [len(a) for a, *_ in calls]
        assert len(lengths) == 2
        assert all(largest_prime_factor(n) <= 5 for n in lengths), lengths


class TestFrequencyCrossCheck:
    @staticmethod
    def burst_in_weak_ring(fs=50e3):
        """A weak 150 Hz ring with a strong 10-cycle 200 Hz burst in its middle.

        Most peak intervals belong to the weak ring, while the burst, where
        the Hann taper is near 1, dominates the spectrum.  (A burst at the
        start of the trace would sit under the taper's zero.)
        """
        def ring(f, amp, cycles):
            t = np.arange(0.0, cycles / f, 1.0 / fs)
            return amp * np.sin(2 * math.pi * f * t)

        x = 0.75 + np.concatenate(
            [ring(150.0, 0.002, 20), ring(200.0, 0.05, 10), ring(150.0, 0.002, 20)]
        )
        n = len(x)
        return Trace(t=np.arange(n) / fs, U=x.copy(), V=x.copy(), I_in=np.zeros(n),
                     clamped=np.zeros(n, dtype=bool), overflow=np.zeros(n, dtype=bool))

    def test_disagreeing_estimators_are_flagged(self):
        tr = self.burst_in_weak_ring()
        f_peaks, f_fft = frequency_alone(tr)
        assert f_peaks == pytest.approx(150.0, rel=1e-3)
        assert f_fft == pytest.approx(200.0, rel=1e-2)
        m = ringdown_metrics(tr, t_stim_end=0.0, settle_window=0.05)
        assert "freq-estimators-disagree" in m.flags
        assert m.f_res == f_peaks


class TestQFactor:
    def test_q129_oracle(self):
        assert metrics(synthetic_ringdown(f=170.0, q=129.0)).q_factor == pytest.approx(129.0,
                                                                                     rel=0.02)

    def test_undamped_trace_flags_infinite(self):
        m = metrics(synthetic_ringdown(f=170.0, q=1e9, duration=0.1))
        assert math.isinf(m.q_factor) and "infinite-q" in m.flags

    def test_simulated_ringdown_matches_derived_q_within_5pct(self):
        from rfneuron.experiments import run_ringdown
        p = CircuitParams()
        _, _, metrics = run_ringdown(p)
        dp = derive_params(p)
        assert metrics.q_factor == pytest.approx(dp.Q, rel=0.05)

    def test_too_few_peaks_undefined(self):
        m = metrics(synthetic_ringdown(f=170.0, q=129.0, duration=2.5 / 170.0))
        assert "q-undefined" in m.flags and math.isnan(m.q_factor)


class TestLine:
    """``_line``, the one line fit behind ``_q_factor`` and ``linear_fit``, against ``np.polyfit``."""

    @settings(max_examples=200, deadline=None)
    @given(scale=st.sampled_from([1e-10, 1e-3, 1.0, 1e3]),
           x=st.lists(st.integers(-1000, 1000), min_size=2, max_size=40, unique=True),
           slope=st.floats(-1e3, 1e3), intercept=st.floats(-1e3, 1e3),
           noise=st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40))
    def test_fitted_values_match_polyfit(self, scale, x, slope, intercept, noise):
        x = np.asarray(x, dtype=float) * scale
        y = slope * (x / scale) + intercept + np.asarray(noise[:len(x)])
        got_slope, got_intercept = _line(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        bound = 1e-12 * (1.0 + float(np.max(np.abs(y))))
        assert np.max(np.abs((got_slope * x + got_intercept) - (ref_slope * x + ref_intercept))) <= bound

    def test_exact_line(self):
        assert _line(np.asarray([1.0, 2.0, 4.0]), np.asarray([3.0, 5.0, 9.0])) == (2.0, 1.0)

    def test_equal_x_define_no_line(self):
        with pytest.raises(UndefinedMetricError, match="distinct"):
            linear_fit(np.asarray([2.0, 2.0, 2.0]), np.asarray([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("x, y, match", [
        ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0], "finite points only"),
        ([1.0, math.inf, 3.0], [1.0, 2.0, 3.0], "finite points only"),
        ([1.0, 2.0], [1.0, 2.0, 3.0], "as many y as x values, got 2 and 3"),
        # not "fewer than 2 finite points, got 1": the one point is not finite
        ([math.nan], [1.0], "finite points only"),
    ], ids=["nan-y", "inf-x", "unequal-lengths", "one-nan-point"])
    def test_bad_points_are_caller_errors(self, x, y, match):
        # unchecked, a NaN reads as a perfect fit and an inf fits with numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                linear_fit(np.asarray(x), np.asarray(y))

    def test_intercept_within_1e_9_hz_of_the_exact_fit(self):
        # the sweep of criterion 9's YAML (tests/test_acceptance.py): frequencies
        # of 200-265 Hz at 80-400 pA, so the intercept at 0 A is a difference of
        # two terms that size; the exact fit is of the same float points
        rows = run_bias_sweep(CircuitParams(), SweepSetup(n_points=3, I_min=8e-11, I_max=4e-10))
        points = [(r["I_A"], r["f_res_Hz"]) for r in rows]
        fit = linear_fit(*np.asarray(points).T)
        x, y = ([Fraction(c) for c in column] for column in zip(*points))
        x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
        slope = (sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
                 / sum((a - x_mean) ** 2 for a in x))
        assert abs(fit["intercept_Hz"] - float(y_mean - slope * x_mean)) <= 1e-9


# zero-free floats of every size, subnormals included, with ties among the sampled values
_nonzero = st.one_of(st.floats(allow_nan=False).filter(bool),
                     st.sampled_from([5e-324, 1e-310, 1.0, 2.0, _HUGE, -_HUGE, -1.0]))


def np_median(x) -> float:
    """``np.median``, the oracle; the middle pair of huge values overflows to inf in both."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.median(x))


class TestMedian:
    """``_median`` gives what ``np.median`` gives, without importing ``numpy.ma``."""

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(_nonzero, min_size=1, max_size=40))
    def test_equals_np_median_bit_for_bit_without_zeros(self, x):
        assert_same_floats(_median(np.asarray(x)), np_median(x))

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.one_of(_nonzero, st.sampled_from([0.0, -0.0])), min_size=1, max_size=40))
    def test_equals_np_median_by_value_with_signed_zeros(self, x):
        got, expected = _median(np.asarray(x)), np_median(x)
        assert got == expected or math.isnan(got) and math.isnan(expected)

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.floats(), min_size=0, max_size=39), at=st.integers(0, 39))
    def test_nan_propagates(self, x, at):
        x.insert(min(at, len(x)), math.nan)
        assert math.isnan(_median(np.asarray(x)))


def _non_finite_v():
    tr = synthetic_ringdown()
    tr.V[len(tr) // 2] = math.nan
    return tr


def _spiking_ringdown():
    # a lowered threshold makes the ringdown fire, leaving clamped samples
    p = dataclasses.replace(CircuitParams(), V_th=0.80)
    tr, events, _ = run_ringdown(p)
    assert events and np.any(tr.clamped)
    return tr


class TestSharedVSearch:
    @pytest.mark.parametrize("make, t_stim_end, flag", [
        (lambda: synthetic_ringdown(amp=0.0), 2e-3, "no-peak"),
        (lambda: synthetic_ringdown(duration=2.5 / 170.0), 2e-3, "q-undefined"),
        (TestFrequencyCrossCheck.burst_in_weak_ring, 0.0, "freq-estimators-disagree"),
        (lambda: synthetic_ringdown(q=1e9, duration=0.1), 2e-3, "infinite-q"),
        (_non_finite_v, 2e-3, "f-res-undefined"),
        (_spiking_ringdown, RingdownSetup().t0 + RingdownSetup().width, "baseline-undefined"),
    ], ids=["no-peak", "fewer-than-5-peaks", "disagreeing-estimators", "undamped",
            "non-finite-V", "clamped"])
    def test_record_equals_the_extractors_called_one_by_one(self, make, t_stim_end, flag):
        tr = make()
        settle_window = tr.t[-1] / 5
        m = ringdown_metrics(tr, t_stim_end, settle_window)
        assert flag in m.flags
        # repr tells a numpy scalar from a float and -0.0 from 0.0
        assert repr(m) == repr(metrics_alone(tr, t_stim_end, settle_window))

    def test_a_ringdown_that_fired_has_no_resonance(self):
        # its V samples hold a spike train; their peak intervals read the firing rate
        tr = _spiking_ringdown()
        m = ringdown_metrics(tr, RingdownSetup().t0 + RingdownSetup().width, tr.t[-1] / 5)
        assert math.isnan(m.f_res) and math.isnan(m.q_factor)
        assert {"f-res-undefined", "q-undefined"} <= set(m.flags)
        assert "infinite-q" not in m.flags
        for extract in (q_alone, frequency_alone):
            with pytest.raises(UndefinedMetricError, match="clamped"):
                extract(tr)

    def test_ringdown_metrics_scans_each_channel_once(self, monkeypatch):
        # V's candidate pass serves its first peak, its peaks and its troughs
        tr, _, _ = run_ringdown(CircuitParams())
        passes = []
        monkeypatch.setattr(analysis, "_turns", spy(analysis._turns, passes))
        setup = RingdownSetup()
        m = ringdown_metrics(tr, setup.t0 + setup.width, setup.settle_window)
        assert m.flags == ()
        channels = sorted("U" if np.shares_memory(x, tr.U) else "V" if np.shares_memory(x, tr.V)
                          else "?" for x, in passes)
        assert channels == ["U", "V"]


class TestFloatFields:
    """Every metric is a Python float, as ``MetricsRecord`` declares, NaN included."""

    @pytest.mark.parametrize("make, t_stim_end", [
        (synthetic_ringdown, 2e-3),
        (lambda: synthetic_ringdown(amp=0.0), 2e-3),
        (lambda: run_ringdown(CircuitParams())[0], RingdownSetup().t0 + RingdownSetup().width),
    ], ids=["synthetic", "flat", "simulated"])
    def test_record_and_first_peak_are_floats(self, make, t_stim_end):
        tr = make()
        m = ringdown_metrics(tr, t_stim_end, tr.t[-1] / 5)
        for field in dataclasses.fields(MetricsRecord):
            if field.name != "flags":
                assert type(getattr(m, field.name)) is float, field.name
        if "no-peak" not in m.flags:
            assert [type(m.first_peak_U), type(m.first_peak_V)] == [float, float]
            assert type(_fft_peak_frequency(tr.t, tr.V)) is float


class TestFICurve:
    def test_zero_level_is_silent(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        rows = fi_curve(p, [0.0], spikes_per_point=5, timeout=0.05)
        assert rows[0][1] == 0.0

    @pytest.mark.parametrize("spikes", [1, 0])
    def test_fewer_than_two_spikes_per_level_rejected(self, spikes):
        # one spike gives no interval, so a firing level would read as 0 Hz
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        with pytest.raises(ValueError, match="spikes_per_point"):
            fi_curve(p, [0.45, 0.5], spikes_per_point=spikes, timeout=0.05)

    def test_levels_must_increase(self):
        p = CircuitParams()
        with pytest.raises(ValueError):
            fi_curve(p, [0.2, 0.1], spikes_per_point=5, timeout=0.05)

    def test_onset_jump_is_discontinuous(self):
        # coarse bracket around the onset: silent below, fast rhythmic above
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        rows = fi_curve(p, [0.38, 0.40, 0.44, 0.46], spikes_per_point=12,
                        timeout=0.25)
        rates = [r for _, r, _ in rows]
        assert rates[0] == 0.0
        assert rates[-1] > 100.0

    def test_monotone_above_onset(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        rows = fi_curve(p, [0.44, 0.47, 0.50], spikes_per_point=12, timeout=0.25)
        rates = [r for _, r, _ in rows]
        assert rates[0] > 0.0
        assert rates[0] <= rates[1] <= rates[2]


class TestTuningMap:
    def test_structure_and_serialization(self, tmp_path):
        counts = np.array([[0, 2, 5], [0, 0, 7]])
        tm = TuningMap(bias_levels=(1e-10, 2e-10), frequencies=(100.0, 150.0, 200.0),
                       vth_schedule=(0.84, 0.85), counts=counts)
        assert tm.detected_frequency(0) == 200.0
        # the numpy counts are written as integers, the axes as .12g floats
        write_csv(tmp_path / "map.csv", ("bias_A\\freq_Hz", *tm.frequencies),
                  ((b, *row) for b, row in zip(tm.bias_levels, tm.counts)))
        write_json(tmp_path / "map.json", {"frequencies_Hz": tm.frequencies,
                                           "counts": tm.counts.tolist()})
        first = (tmp_path / "map.csv").read_text().splitlines()
        assert first[0] == "bias_A\\freq_Hz,100,150,200"
        assert first[1] == "1e-10,0,2,5"
        payload = json.loads((tmp_path / "map.json").read_text())
        assert payload == {"frequencies_Hz": [100.0, 150.0, 200.0], "counts": [[0, 2, 5], [0, 0, 7]]}

    def test_all_zero_row_reports_none(self):
        tm = TuningMap(bias_levels=(1e-10,), frequencies=(100.0, 200.0),
                       vth_schedule=(0.84,), counts=np.array([[0, 0]]))
        assert tm.detected_frequency(0) is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TuningMap(bias_levels=(1e-10,), frequencies=(100.0,),
                      vth_schedule=(0.84,), counts=np.array([[-1]]))

    def test_small_simulated_map_bins_by_block(self):
        # one bias, short two-block chirp near resonance: spikes land in-band
        p = CircuitParams()
        chirp = spiking_chirp(196.0, 220.0, 2, 10, 100e-6, 0.5, Polarity.INH)
        tm = tuning_map(p, [150e-12], [0.850], chirp)
        assert tm.counts.shape == (1, 2)
        assert tm.counts.sum() >= 1


_SCRIPTED = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=CircuitParams().T_spk,
                            ack_delays=tuple(20e-6 * (i % 4) for i in range(40)))
_PROTOCOLS = [pytest.param(None, id="self-ack"), pytest.param(_SCRIPTED, id="scripted-ack")]
_SHORT_CHIRP = spiking_chirp(196.0, 220.0, 2, 10, 100e-6, 0.5, Polarity.INH)


class TestLanes:
    """Sweep lanes run on threads and give what one lane at a time gives."""

    def test_lanes_run_at_once_and_keep_their_order(self, on_cpus):
        barrier, threads = threading.Barrier(3, timeout=30), set()

        def lane(x):
            threads.add(threading.get_ident())
            barrier.wait()  # breaks unless all three lanes run at the same time
            return x * x

        assert on_cpus(3, lambda: map_lanes(lane, [3, 1, 2])) == [9, 1, 4]
        assert len(threads) == 3 and threading.get_ident() in threads  # the caller is a lane

    @pytest.mark.parametrize("cpus, lanes", [(1, 3), (4, 1)])
    def test_one_lane_runs_on_the_calling_thread(self, on_cpus, cpus, lanes):
        threads = set()

        def lane(x):
            threads.add(threading.get_ident())
            return -x

        assert on_cpus(cpus, lambda: map_lanes(lane, [1, 2, 3], lanes)) == [-1, -2, -3]
        assert threads == {threading.get_ident()}

    def test_no_item_gives_no_result(self):
        assert map_lanes(lambda x: x, []) == []

    def test_no_more_lanes_than_the_cap_live_at_once(self, on_cpus):
        lock, live, most = threading.Lock(), [0], [0]

        def lane(x):
            with lock:
                live[0] += 1
                most[0] = max(most[0], live[0])
            time.sleep(0.05)
            with lock:
                live[0] -= 1
            return x

        items = list(range(4 * MAX_LANES))
        assert on_cpus(26, lambda: map_lanes(lane, items)) == items
        assert most[0] == MAX_LANES

    def test_first_failing_lane_in_input_order_raises(self, on_cpus):
        def lane(x):
            if x == 1:
                time.sleep(0.05)  # fails after lane 2 has
            if x:
                raise ValueError(f"lane {x}")
            return x

        with pytest.raises(ValueError, match="lane 1"):
            on_cpus(3, lambda: map_lanes(lane, [0, 1, 2]))

    def test_no_lane_takes_an_item_after_a_failure(self, on_cpus):
        caller, log, helper = threading.get_ident(), [], []
        failing = threading.Event()

        def lane(x):
            log.append(("start", x))
            if threading.get_ident() != caller:  # the helper fails on its first item
                log.append(("fail", x))
                helper.append(threading.current_thread())
                failing.set()
                raise ValueError(f"lane {x}")
            # the calling lane's item outlasts the helper, which exits only once
            # map_lanes has recorded its failure
            assert failing.wait(timeout=60)
            helper[0].join()
            return x

        with pytest.raises(ValueError, match="lane"):
            on_cpus(2, lambda: map_lanes(lane, range(10)))
        failed = log.index(next(e for e in log if e[0] == "fail"))
        assert log[failed + 1:] == []

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_fi_rows_do_not_depend_on_the_thread_count(self, protocol, on_cpus):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)

        def rows():
            return fi_curve(p, [0.38, 0.44, 0.47, 0.50], spikes_per_point=8, timeout=0.1,
                            protocol=protocol)

        serial = on_cpus(1, rows)
        assert repr(on_cpus(4, rows)) == repr(serial)
        assert serial[0][1] == 0.0 and all(r > 0.0 for _, r, _ in serial[1:])

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_tuning_map_counts_do_not_depend_on_the_thread_count(self, protocol, on_cpus):
        def counts():
            return tuning_map(CircuitParams(), [120e-12, 150e-12, 180e-12], [0.85, 0.85, 0.86],
                              _SHORT_CHIRP, protocol=protocol).counts

        serial = on_cpus(1, counts)
        assert np.array_equal(on_cpus(4, counts), serial)
        assert serial.shape == (3, 2) and np.count_nonzero(serial.sum(axis=1)) >= 2

    def test_acks_running_out_in_a_middle_lane_fail_alike(self, on_cpus):
        short = dataclasses.replace(_SCRIPTED, ack_delays=_SCRIPTED.ack_delays[:10])
        bias, vth = [120e-12, 150e-12, 180e-12], [0.90, 0.85, 0.90]
        for i in (0, 2):  # the outer rows stay within ten acknowledges, the middle one does not
            tuning_map(CircuitParams(), [bias[i]], [vth[i]], _SHORT_CHIRP, protocol=short)

        def run():
            return tuning_map(CircuitParams(), bias, vth, _SHORT_CHIRP, protocol=short)

        errors = []
        for cpus in (1, 4):
            with pytest.raises(ProtocolError) as info:
                on_cpus(cpus, run)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("scripted acknowledge list exhausted at event 10")

    def test_bias_sweep_rows_do_not_depend_on_the_thread_count(self, on_cpus):
        setup = SweepSetup(I_min=50e-12, I_max=400e-12, n_points=4)

        def rows():
            return run_bias_sweep(CircuitParams(), setup)

        serial = on_cpus(1, rows)
        assert repr(on_cpus(4, rows)) == repr(serial)
        assert [r["I_A"] for r in serial] == setup.levels()
        assert all(math.isfinite(r["f_res_Hz"]) for r in serial)

    def test_first_failing_sweep_point_in_input_order_raises(self, on_cpus, monkeypatch):
        setup = SweepSetup(I_min=50e-12, I_max=400e-12, n_points=4)
        levels = setup.levels()

        def ringdown(p, rd):
            if p.I_IU == levels[1]:
                time.sleep(0.2)  # fails after point 3 has
            if p.I_IU in (levels[1], levels[3]):
                raise UndefinedMetricError(f"point {levels.index(p.I_IU)}")
            return run_ringdown(p, rd)

        monkeypatch.setattr(experiments, "run_ringdown", ringdown)
        with pytest.raises(UndefinedMetricError, match="point 1"):
            on_cpus(4, lambda: run_bias_sweep(CircuitParams(), setup))
