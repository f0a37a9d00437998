"""Scalar metrics extracted from simulated traces and event lists.

The ringdown after an impulsive input yields four quantities: the settled
baseline of each node, the first post-stimulus oscillation peak, the
resonant frequency, and the quality factor from the decay envelope.  Rate
metrics (F-I curve) and the frequency-selectivity map come from spike
events of driven runs.

Frequency uses two independent estimators: the median of inverse
peak-to-peak intervals and the interpolated maximum of a Hann-windowed
spectrum.  Records where the two disagree by more than 2% are flagged
rather than silently trusted.

Every peak comes from one search.  A local maximum is a rise followed by a
fall; a flat top counts once, at its middle sample ``(left + right) // 2``,
and a flat top that touches either end of the array is no peak.  A peak's
prominence is ``x[peak] - max(left_min, right_min)``, where each minimum
runs from the peak to the nearest strictly higher sample on that side, or to
the end of the array.  Peaks less prominent than ``PEAK_MIN_PROMINENCE`` are
dropped.  These are the usual signal-processing definitions (a
``find_peaks`` with a prominence threshold), and the tests hold the search
to such a reference implementation index for index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CircuitParams, NeuronState, Phase, derive_params
from .errors import UndefinedMetricError
from .handshake import HandshakeConfig, firing_rate
from .integrator import IntegratorConfig, Trace, integrate
from .stimuli import StimulusProgram, step

__all__ = [
    "MetricsRecord",
    "TuningMap",
    "PEAK_MIN_PROMINENCE",
    "extract_baseline",
    "extract_first_peak",
    "resonant_frequency_estimates",
    "q_factor",
    "fi_curve",
    "tuning_map",
]

# 3-point local maxima below this prominence are treated as sampling noise.
PEAK_MIN_PROMINENCE = 0.1e-3  # V

# Maximum relative disagreement tolerated between the two frequency estimators.
FREQ_CONSISTENCY_TOL = 0.02


@dataclass(frozen=True)
class MetricsRecord:
    """Scalar ringdown metrics; undefined entries are NaN and named in flags."""

    baseline_U: float
    baseline_V: float
    first_peak_U: float = math.nan
    first_peak_V: float = math.nan
    f_res: float = math.nan
    q_factor: float = math.nan
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class TuningMap:
    """Spike counts on a (bias current, input frequency) grid."""

    bias_levels: tuple[float, ...]      # A, strictly increasing
    frequencies: tuple[float, ...]      # Hz, strictly increasing
    vth_schedule: tuple[float, ...]     # V, one threshold per bias row
    counts: np.ndarray                  # shape (n_bias, n_freq), int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=int)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.bias_levels), len(self.frequencies)):
            raise ValueError("tuning map counts shape mismatch")
        if np.any(counts < 0):
            raise ValueError("tuning map counts must be non-negative")
        for name, axis in (("bias_levels", self.bias_levels), ("frequencies", self.frequencies)):
            if any(b >= c for b, c in zip(axis, axis[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if len(self.vth_schedule) != len(self.bias_levels):
            raise ValueError("one threshold per bias row required")

    def detected_frequency(self, row: int) -> float | None:
        """Argmax frequency of one bias row; None when the row is empty."""
        if self.counts[row].sum() == 0:
            return None
        return self.frequencies[int(np.argmax(self.counts[row]))]


def extract_baseline(tr: Trace, settle_window: float) -> tuple[float, float]:
    """Mean (U, V) over the final ``settle_window`` seconds of the trace.

    Raises ``ValueError`` unless the window's samples are finite and
    clamp-free: a handshake inside it would bias the mean with held voltages.
    """
    if settle_window <= 0.0:
        raise ValueError("settle_window must be positive")
    t_hi = tr.t[-1]
    t_lo = t_hi - settle_window
    if t_lo < tr.t[0]:
        raise ValueError(
            f"settle window {settle_window!r} s exceeds trace span {t_hi - tr.t[0]!r} s"
        )
    sel = tr.t >= t_lo
    if np.any(tr.clamped[sel]):
        raise ValueError("settle window contains clamped samples")
    u, v = tr.U[sel], tr.V[sel]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("settle window contains non-finite samples")
    return float(np.mean(u)), float(np.mean(v))


def _find_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` at least ``min_prominence`` high.

    The definitions are in the module docstring.  The nearest strictly
    higher sample beside a peak lies no farther out than the nearest
    strictly higher peak (or the array end), and the minimum up to either is
    the same, so the search runs over the peaks alone: one ``reduceat`` gives the
    minimum between neighbouring peaks, and ``_lowest_back_to_higher``
    merges those minima out to the next higher peak on each side.
    """
    d = np.diff(x)
    moves = np.flatnonzero(d)
    rising = d[moves] > 0.0
    top = rising[:-1] & ~rising[1:]
    peaks = (moves[:-1][top] + 1 + moves[1:][top]) // 2
    if len(peaks) == 0:
        return peaks
    # gaps[k] is the minimum between peak k-1 (or the start) and peak k; the
    # last entry runs from the last peak to the end
    gaps = np.minimum.reduceat(x, np.concatenate(([0], peaks))).tolist()
    heights = x[peaks]
    left = _lowest_back_to_higher(heights.tolist(), gaps[:-1])
    right = _lowest_back_to_higher(heights[::-1].tolist(), gaps[:0:-1])[::-1]
    prominence = heights - np.maximum(left, right)
    return peaks[prominence >= min_prominence]


def _lowest_back_to_higher(heights: list[float], gaps: list[float]) -> list[float]:
    """Per peak, the lowest sample back to the nearest strictly higher peak.

    ``gaps[j]`` is the minimum between peak j and the peak before it (or
    the array end).  A monotonic stack of (height, lowest sample back to the
    peak below it on the stack) keeps the pass linear in the peak count.
    """
    stack: list[tuple[float, float]] = []
    lows = []
    for height, low in zip(heights, gaps):
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        lows.append(low)
        stack.append((height, low))
    return lows


def _channel_peaks(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prominence-filtered local maxima; times refined by parabolic fit.

    A non-finite sample makes the peaks undefined and raises
    :class:`UndefinedMetricError`.
    """
    if not np.all(np.isfinite(x)):
        raise UndefinedMetricError("non-finite sample in the peak search")
    idx = _find_peaks(x, PEAK_MIN_PROMINENCE)
    if len(idx) == 0:
        return np.empty(0), np.empty(0)
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
            # a parabola only applies to locally smooth maxima; at a kink the
            # vertex estimate can overshoot, so cap it by the shallower side
            cap = 0.5 * min(y1 - y0, y1 - y2)
            if vs - y1 > max(cap, 0.0):
                vs = y1 + max(cap, 0.0)
        else:
            ts, vs = t[i], x[i]
        times.append(float(ts))
        values.append(float(vs))
    return np.asarray(times), np.asarray(values)


def extract_first_peak(tr: Trace, t_stim_end: float) -> tuple[float, float]:
    """First local maximum of U and of V after the stimulus ends.

    The channels are scanned independently; a channel with no detectable
    peak (constant or monotone tail) raises :class:`UndefinedMetricError`.
    """
    sel = (tr.t >= t_stim_end) & ~tr.clamped
    if np.count_nonzero(sel) < 3:
        raise UndefinedMetricError("not enough post-stimulus samples for peak search")
    t = tr.t[sel]
    out = []
    for x in (tr.U[sel], tr.V[sel]):
        _, values = _channel_peaks(t, x)
        if len(values) == 0:
            raise UndefinedMetricError("no local maximum after the stimulus")
        out.append(values[0])
    return out[0], out[1]


def _fft_peak_frequency(t: np.ndarray, x: np.ndarray) -> float:
    """Frequency of the tapered-spectrum maximum, parabolically interpolated."""
    n = len(x)
    if n < 16:
        raise UndefinedMetricError("trace too short for a spectral estimate")
    dt = float(np.median(np.diff(t)))
    y = (x - np.mean(x)) * np.hanning(n)
    spec = np.abs(np.fft.rfft(y))
    spec[0] = 0.0
    k = int(np.argmax(spec))
    if k == 0 or spec[k] == 0.0:
        raise UndefinedMetricError("no spectral peak found")
    if 1 <= k < len(spec) - 1 and spec[k - 1] > 0.0 and spec[k + 1] > 0.0:
        l0, l1, l2 = np.log(spec[k - 1]), np.log(spec[k]), np.log(spec[k + 1])
        denom = l0 - 2.0 * l1 + l2
        delta = 0.5 * (l0 - l2) / denom if denom != 0.0 else 0.0
        delta = min(max(delta, -0.5), 0.5)
    else:
        delta = 0.0
    return (k + delta) / (n * dt)


def resonant_frequency_estimates(tr: Trace) -> tuple[float, float]:
    """(median inter-peak estimate, spectral estimate) of the V oscillation."""
    sel = ~tr.clamped
    t, v = tr.t[sel], tr.V[sel]
    times, _ = _channel_peaks(t, v)
    if len(times) < 3:
        raise UndefinedMetricError("fewer than 3 oscillation peaks detected")
    intervals = np.diff(times)
    f_peaks = float(np.median(1.0 / intervals))
    f_fft = _fft_peak_frequency(t, v)
    return f_peaks, f_fft


def q_factor(tr: Trace) -> float:
    """Quality factor from the exponential decay of the V peak envelope.

    Fits ln(peak - baseline) against peak time; the negative reciprocal of
    the slope is the envelope time constant tau and Q = pi * f_res * tau.

    The oscillation center is taken as the midline between the late peak
    and trough envelopes (a plain tail mean is biased when ringing
    persists), and the fit prefers the small-amplitude portion of the
    envelope, where the exponential-decay model is exact; large early
    excursions of the exponential-state oscillator are asymmetric in
    voltage and would tilt the fitted slope.

    A non-decaying envelope returns ``inf`` (undamped flag-equivalent); a
    trace with fewer than 5 usable peaks raises
    :class:`UndefinedMetricError`.
    """
    sel = ~tr.clamped
    t, v = tr.t[sel], tr.V[sel]
    peak_t, peak_v = _channel_peaks(t, v)
    trough_t, trough_v = _channel_peaks(t, -v)
    trough_v = -trough_v
    if len(peak_t) < 5 or len(trough_t) < 2:
        raise UndefinedMetricError("fewer than 5 peaks above baseline for the envelope fit")
    n_tail = max(2, min(5, len(peak_t) // 4, len(trough_t)))
    baseline = 0.5 * (float(np.mean(peak_v[-n_tail:])) + float(np.mean(trough_v[-n_tail:])))
    heights = peak_v - baseline
    # stay well above the detection floor so baseline error cannot tilt the fit
    keep = heights > 4.0 * PEAK_MIN_PROMINENCE
    if np.count_nonzero(keep) < 5:
        keep = heights > 0.5 * PEAK_MIN_PROMINENCE
    times, heights = peak_t[keep], heights[keep]
    if len(times) < 5:
        raise UndefinedMetricError("fewer than 5 peaks above baseline for the envelope fit")
    small = heights <= 0.4 * float(np.max(heights))
    if np.count_nonzero(small) >= 5:
        times, heights = times[small], heights[small]
    intervals = np.diff(times)
    f_res = float(np.median(1.0 / intervals))
    slope = float(np.polyfit(times, np.log(heights), 1)[0])
    span = float(times[-1] - times[0])
    if slope >= 0.0 or -slope * span < 5e-3:
        return math.inf
    tau = -1.0 / slope
    return math.pi * f_res * tau


def fi_curve(
    p: CircuitParams,
    levels: list[float],
    spikes_per_point: int = 100,
    timeout: float = 1.0,
    cfg: IntegratorConfig | None = None,
    protocol: HandshakeConfig | None = None,
) -> list[tuple[float, float, float]]:
    """Mean firing rate and its std versus constant excitatory drive level.

    Each level runs a step-input simulation until ``spikes_per_point``
    spikes have been collected or ``timeout`` seconds of simulated time
    elapse; silence is a valid zero-rate outcome.  Returns rows of
    (level_V, rate_Hz, rate_std_Hz) in the order given; levels must be
    increasing, and ``spikes_per_point`` at least 2, since a rate needs one
    inter-spike interval.
    """
    if any(b >= c for b, c in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if spikes_per_point < 2:
        raise ValueError(f"spikes_per_point must be >= 2, got {spikes_per_point!r}")
    if cfg is None:
        cfg = IntegratorConfig(t_end=timeout)
    else:
        cfg = replace(cfg, t_end=timeout)
    dp = derive_params(p)
    s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star, phase=Phase.OSCILLATE)
    rows: list[tuple[float, float, float]] = []
    for level in levels:
        prog = step(0.0, 0.0, level, v_limit=p.V_DD)
        _, events = integrate(s0, p, prog, cfg, protocol, max_events=spikes_per_point)
        rate = firing_rate(events)
        std = 0.0 if not rate.defined else rate.std_hz
        rows.append((level, rate.mean_hz, std))
    return rows


def tuning_map(
    base: CircuitParams,
    bias_levels: list[float],
    vth_schedule: list[float],
    chirp: StimulusProgram,
    cfg: IntegratorConfig | None = None,
    protocol: HandshakeConfig | None = None,
) -> TuningMap:
    """Spike counts per (bias, input-frequency block) over a chirp stimulus.

    For each bias level the matching threshold from ``vth_schedule`` is
    applied, the chirp is simulated, and every output spike is binned by the
    frequency block active at its request time.  Spikes after the final
    block (free ringing of the tail) land in the last block.
    """
    if len(bias_levels) != len(vth_schedule):
        raise ValueError("bias_levels and vth_schedule must have matching lengths")
    if not chirp.freq_blocks:
        raise ValueError("tuning_map requires a chirp program with frequency blocks")
    blocks = chirp.freq_blocks
    freqs = tuple(b.frequency for b in blocks)
    counts = np.zeros((len(bias_levels), len(freqs)), dtype=int)
    if cfg is None:
        cfg = IntegratorConfig(t_end=blocks[-1].t_end)

    for row, (bias, vth) in enumerate(zip(bias_levels, vth_schedule)):
        p = replace(base, I_IU=bias, I_IV=bias, V_th=vth)
        dp = derive_params(p)
        s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star, phase=Phase.OSCILLATE)
        _, events = integrate(s0, p, chirp, cfg, protocol)
        for e in events:
            counts[row, chirp.block_index(e.t_req)] += 1
    return TuningMap(
        bias_levels=tuple(bias_levels),
        frequencies=freqs,
        vth_schedule=tuple(vth_schedule),
        counts=counts,
    )
