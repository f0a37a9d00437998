"""Metric extractors validated against synthetic traces with known answers."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfneuron import (
    CircuitParams,
    IntegratorConfig,
    NeuronState,
    Trace,
    UndefinedMetricError,
    derive_params,
    extract_baseline,
    extract_first_peak,
    fi_curve,
    integrate,
    q_factor,
    spiking_chirp,
    step,
    tuning_map,
)
from rfneuron.analysis import (
    PEAK_MIN_PROMINENCE,
    TuningMap,
    _channel_peaks,
    _find_peaks,
    resonant_frequency_estimates,
)
from rfneuron.cli import write_csv, write_json
from rfneuron.experiments import ringdown_metrics, run_chirp, run_ringdown
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


class TestExtractBaseline:
    def test_constant_trace(self):
        tr = synthetic_ringdown(amp=0.0)
        u, v = extract_baseline(tr, settle_window=tr.t[-1] / 5)
        assert u == pytest.approx(0.75, rel=1e-12)
        assert v == pytest.approx(0.75, rel=1e-12)

    def test_equilibrium_run_recovers_star_point(self):
        p = CircuitParams()
        dp = derive_params(p)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.02, sample_stride=50)
        s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
        tr, _ = integrate(s0, p, step(0.0, 0.0, 0.0, Polarity.EXC), cfg)
        u, v = extract_baseline(tr, 5e-3)
        assert u == pytest.approx(dp.U_star, abs=1e-9)
        assert v == pytest.approx(dp.V_star, abs=1e-9)

    def test_residual_ring_bounds_the_error(self):
        eps = 1e-3
        tr = synthetic_ringdown(amp=eps, q=1e5)  # essentially undamped tail
        u, _ = extract_baseline(tr, settle_window=tr.t[-1] / 4)
        assert abs(u - 0.75) < eps

    def test_window_larger_than_trace_rejected(self):
        tr = synthetic_ringdown()
        with pytest.raises(ValueError):
            extract_baseline(tr, settle_window=10 * tr.t[-1])

    @pytest.mark.parametrize("column, value", [("U", math.nan), ("V", math.inf)])
    def test_non_finite_sample_in_window_rejected(self, column, value):
        tr = synthetic_ringdown()
        getattr(tr, column)[-3] = value
        with pytest.raises(ValueError, match="non-finite"):
            extract_baseline(tr, settle_window=tr.t[-1] / 5)
        metrics = ringdown_metrics(tr, 2e-3, tr.t[-1] / 5)
        assert "baseline-undefined" in metrics.flags


class TestExtractFirstPeak:
    def test_known_first_peak_recovered(self):
        # phase -pi/2 starts the oscillation on a rising zero crossing, so
        # the first maximum sits a quarter period after the stimulus end
        # with the envelope decayed by exp(-pi / (4 q))
        f, q, amp = 170.0, 129.0, 0.04
        tr = synthetic_ringdown(f=f, q=q, baseline=0.75, amp=amp, t0=2e-3,
                                phase=-math.pi / 2)
        expected = 0.75 + amp * math.exp(-math.pi / (4 * q))
        u_pk, v_pk = extract_first_peak(tr, t_stim_end=2e-3)
        assert u_pk == pytest.approx(expected, abs=2e-4)
        assert v_pk == pytest.approx(expected, abs=2e-4)

    def test_constant_trace_has_no_peak(self):
        tr = synthetic_ringdown(amp=0.0)
        with pytest.raises(UndefinedMetricError):
            extract_first_peak(tr, t_stim_end=1e-3)

    def test_monotone_tail_has_no_peak(self):
        t = np.linspace(0, 1, 2000)
        x = 0.7 - 0.01 * t
        tr = Trace(t=t, U=x, V=x, I_in=np.zeros_like(t),
                   clamped=np.zeros_like(t, dtype=bool),
                   overflow=np.zeros_like(t, dtype=bool))
        with pytest.raises(UndefinedMetricError):
            extract_first_peak(tr, t_stim_end=0.0)


PROMINENCES = (0.0, PEAK_MIN_PROMINENCE, 5.0 * PEAK_MIN_PROMINENCE)

# small integers in steps of the detection floor give plateaus, flat edges and
# prominences that land exactly on the threshold
_stepped = st.lists(st.integers(0, 4), max_size=60).map(
    lambda xs: np.asarray(xs, dtype=float) * PEAK_MIN_PROMINENCE)
_smooth = st.lists(st.floats(-1e-3, 1e-3), max_size=60).map(
    lambda xs: np.asarray(xs, dtype=float))


@pytest.fixture(scope="module")
def reference_find_peaks():
    """scipy's peak finder, the oracle; scipy is a test-only dependency."""
    return pytest.importorskip("scipy.signal").find_peaks


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
            np.testing.assert_array_equal(_find_peaks(x, prominence), expected)

    @pytest.mark.parametrize("x", [[], [1.0], [1.0, 2.0], [2.0, 1.0], [0.5] * 7],
                             ids=["empty", "one", "two-rising", "two-falling", "constant"])
    def test_short_and_constant_arrays_have_no_peak(self, reference_find_peaks, x):
        x = np.asarray(x, dtype=float)
        for prominence in PROMINENCES:
            assert len(reference_find_peaks(x, prominence=prominence)[0]) == 0
            assert len(_find_peaks(x, prominence)) == 0

    def test_plateau_counts_at_its_middle_and_not_at_an_edge(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0])
        np.testing.assert_array_equal(_find_peaks(x, 0.0), [2])

    @pytest.mark.parametrize("name", ["ringdown", "chirp"])
    def test_matches_reference_on_default_traces(self, reference_find_peaks,
                                                 default_traces, name):
        tr = default_traces[name]
        for x in (tr.U, tr.V, -tr.U, -tr.V):
            expected = reference_find_peaks(x, prominence=PEAK_MIN_PROMINENCE)[0]
            assert len(expected) > 10
            np.testing.assert_array_equal(_find_peaks(x, PEAK_MIN_PROMINENCE), expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_makes_every_peak_metric_undefined(self, bad):
        tr = synthetic_ringdown()
        tr.U[len(tr) // 2] = tr.V[len(tr) // 2] = bad
        with pytest.raises(UndefinedMetricError, match="non-finite"):
            _channel_peaks(tr.t, tr.V)
        m = ringdown_metrics(tr, t_stim_end=2e-3, settle_window=tr.t[-1] / 5)
        assert {"no-peak", "f-res-undefined", "q-undefined"} <= set(m.flags)
        assert math.isnan(m.first_peak_V) and math.isnan(m.f_res) and math.isnan(m.q_factor)


class TestResonantFrequency:
    def test_170hz_oracle(self):
        tr = synthetic_ringdown(f=170.0, q=129.0)
        assert resonant_frequency_estimates(tr)[0] == pytest.approx(170.0, rel=5e-3)

    @pytest.mark.parametrize("f", [10.0, 50.0, 170.0, 600.0, 2000.0])
    @pytest.mark.parametrize("q", [5.0, 50.0, 500.0])
    def test_estimator_consistency_grid(self, f, q):
        tr = synthetic_ringdown(f=f, q=q, amp=0.03)
        est = resonant_frequency_estimates(tr)[0]
        assert est == pytest.approx(f, rel=0.02)
        qm = q_factor(tr)
        assert qm == pytest.approx(q, rel=0.02)

    def test_two_estimators_agree(self):
        tr = synthetic_ringdown(f=300.0, q=80.0)
        f_peaks, f_fft = resonant_frequency_estimates(tr)
        assert abs(f_peaks - f_fft) <= 0.02 * f_peaks

    def test_insufficient_peaks_undefined(self):
        tr = synthetic_ringdown(amp=0.0)
        with pytest.raises(UndefinedMetricError):
            resonant_frequency_estimates(tr)

    def test_sampling_rate_insensitivity(self):
        f = 170.0
        a = resonant_frequency_estimates(synthetic_ringdown(f=f, fs=300 * f))[0]
        b = resonant_frequency_estimates(synthetic_ringdown(f=f, fs=600 * f))[0]
        assert abs(a - b) / a < 1e-3


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
        f_peaks, f_fft = resonant_frequency_estimates(tr)
        assert f_peaks == pytest.approx(150.0, rel=1e-3)
        assert f_fft == pytest.approx(200.0, rel=1e-2)
        m = ringdown_metrics(tr, t_stim_end=0.0, settle_window=0.05)
        assert "freq-estimators-disagree" in m.flags
        assert m.f_res == f_peaks


class TestQFactor:
    def test_q129_oracle(self):
        tr = synthetic_ringdown(f=170.0, q=129.0)
        assert q_factor(tr) == pytest.approx(129.0, rel=0.02)

    def test_undamped_trace_flags_infinite(self):
        tr = synthetic_ringdown(f=170.0, q=1e9, duration=0.1)
        assert math.isinf(q_factor(tr))

    def test_simulated_ringdown_matches_derived_q_within_5pct(self):
        from rfneuron.experiments import run_ringdown
        p = CircuitParams()
        _, _, metrics = run_ringdown(p)
        dp = derive_params(p)
        assert metrics.q_factor == pytest.approx(dp.Q, rel=0.05)

    def test_too_few_peaks_undefined(self):
        tr = synthetic_ringdown(f=170.0, q=129.0, duration=2.5 / 170.0)
        with pytest.raises(UndefinedMetricError):
            q_factor(tr)


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
