"""Scalar metrics extracted from simulated traces and event lists.

The ringdown after an impulsive input yields four quantities: the settled
baseline of each node, the first post-stimulus oscillation peak, the
resonant frequency, and the quality factor from the decay envelope.  Rate
metrics (firing rate, F-I curve) and the frequency-selectivity map come from
spike events of driven runs.  Every metric of a run is computed here.

Frequency uses two independent estimators: the median of inverse
peak-to-peak intervals and the interpolated maximum of a Hann-windowed
spectrum.  Records where the two disagree by more than 2% are flagged
rather than silently trusted.  The spectrum is taken of the last m samples,
m the largest 2^a 3^b 5^c not above the sample count (6000 of 6001), a
length the FFT transforms without its slow general-length path.

Every peak comes from one search.  A local maximum is a rise followed by a
fall; a flat top counts once, at its middle sample ``(left + right) // 2``,
and a flat top that touches either end of the array is no peak.  A peak's
prominence is ``x[peak] - max(left_min, right_min)``, where each minimum
runs from the peak to the nearest strictly higher sample on that side, or to
the end of the array.  Peaks less prominent than ``PEAK_MIN_PROMINENCE`` are
dropped.  These are the usual signal-processing definitions (a
``find_peaks`` with a prominence threshold), and the tests hold the search
to such a reference implementation index for index.  A peak is never the
first or last sample; its time and value are refined by a parabola through
it and both neighbours, for every peak read at once.

:func:`ringdown_metrics` makes one candidate pass over each channel, and
V's turns give its first peak, its peaks and its troughs (the peaks of
-V).  A first peak is read between the stimulus end and the first clamped
sample, since the samples after a handshake hold belong to a spike; its
walk stops at the first candidate prominent within that window.  The
frequency and Q read the peaks of all the V samples, Q the troughs too.  A
trace with clamped samples has neither: the run fired, and its V samples
hold a spike train, not a resonance.  Each public extractor scans what it
reads itself.  A metric the trace does not support raises
:class:`UndefinedMetricError`, which :func:`ringdown_metrics` turns into a
flag; a ``ValueError`` is a caller error, such as a settle window longer
than the trace, and propagates.

Independent runs (the levels of :func:`fi_curve`, the rows of
:func:`tuning_map`, the points of ``experiments.run_bias_sweep``, the dies
of ``montecarlo.run_population``, and the chirp raster of ``rfneuron chirp``
beside its one-row tuning maps) go through :func:`map_lanes`, the package's
one parallel mechanism: the calling thread and up to two helper threads
take the runs one by one.  A :func:`map_lanes` call with one item starts no
thread, so a one-row map inside a lane runs on that lane.  A run spends
nearly all of its time in the compiled span runner, which ``ctypes`` calls
with the GIL released, so the lanes run in parallel in one process: no
fork, no pickling and no second copy of the process's memory.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from threading import Lock, Thread

import numpy as np

from .core import CircuitParams, NeuronState, derive_params
from .errors import UndefinedMetricError, require_increasing
from .handshake import HandshakeConfig, SpikeEvent
from .integrator import IntegratorConfig, Trace, integrate
from .stimuli import StimulusProgram, step

__all__ = [
    "MetricsRecord",
    "FiringRate",
    "TuningMap",
    "PEAK_MIN_PROMINENCE",
    "MAX_LANES",
    "extract_baseline",
    "extract_first_peak",
    "resonant_frequency_estimates",
    "q_factor",
    "ringdown_metrics",
    "firing_rate",
    "linear_fit",
    "map_lanes",
    "fi_curve",
    "tuning_map",
]

# 3-point local maxima below this prominence are treated as sampling noise.
PEAK_MIN_PROMINENCE = 0.1e-3  # V

# Maximum relative disagreement tolerated between the two frequency estimators.
FREQ_CONSISTENCY_TOL = 0.02

# Most lanes live at once.  Each live lane holds its own trace buffer and
# each helper thread its own malloc arena: with one lane per CPU, peak RSS
# of the default `fi` run went from 33.9 MB (one lane at a time) to
# 36.0-37.1 MB at 4 lanes and 45.5 MB at 26; at 3 lanes it stays within 6%
# (35.2-35.9 MB; `chirp --full-map` 36.5 -> 38.5 MB).
MAX_LANES = 3


@dataclass(frozen=True)
class MetricsRecord:
    """Scalar ringdown metrics; undefined entries are NaN and named in flags."""

    baseline_U: float
    baseline_V: float
    first_peak_U: float
    first_peak_V: float
    f_res: float
    q_factor: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class FiringRate:
    """Inverse inter-spike-interval statistics of one event list."""

    mean_hz: float
    std_hz: float
    n_intervals: int

    @property
    def defined(self) -> bool:
        """False when fewer than two events prevented any interval estimate."""
        return self.n_intervals >= 1


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
            require_increasing(axis, f"{name} must be strictly increasing")
        if len(self.vth_schedule) != len(self.bias_levels):
            raise ValueError("one threshold per bias row required")

    def detected_frequency(self, row: int) -> float | None:
        """Argmax frequency of one bias row; None when the row is empty."""
        if self.counts[row].sum() == 0:
            return None
        return self.frequencies[int(np.argmax(self.counts[row]))]


def extract_baseline(tr: Trace, settle_window: float) -> tuple[float, float]:
    """Mean (U, V) over the final ``settle_window`` seconds of the trace.

    A window with clamped or non-finite samples has no baseline and raises
    :class:`UndefinedMetricError`: a handshake inside it would bias the mean
    with held voltages.  A ``settle_window`` that is not positive, or longer
    than the trace, is a caller error and raises ``ValueError``.
    """
    if settle_window <= 0.0:
        raise ValueError("settle_window must be positive")
    t_hi = tr.t[-1]
    t_lo = t_hi - settle_window
    if t_lo < tr.t[0]:
        raise ValueError(
            f"settle window {settle_window!r} s exceeds trace span {t_hi - tr.t[0]!r} s"
        )
    lo = int(np.searchsorted(tr.t, t_lo))  # the first sample at or after t_lo
    if np.any(tr.clamped[lo:]):
        raise UndefinedMetricError("settle window contains clamped samples")
    u, v = tr.U[lo:], tr.V[lo:]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise UndefinedMetricError("settle window contains non-finite samples")
    return float(np.mean(u)), float(np.mean(v))


def _turns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate pass: the turns of ``x`` in order, tops and bottoms alternating.

    A top is a rise then a fall, a bottom a fall then a rise, and a flat
    stretch between the two moves counts once, at its middle.  Per turn: the
    index of the move into it, its index, and whether it is a top.  The
    turns of ``x[lo:]`` are those whose move into them is at or after ``lo``.
    """
    # comparisons, not differences, which overflow near the ends of the float range
    moves = np.flatnonzero(x[1:] != x[:-1])
    rising = (x[1:] > x[:-1])[moves]
    turn = np.flatnonzero(rising[:-1] != rising[1:])  # the moves into the turns
    into = moves[turn]
    return into, (into + 1 + moves[turn + 1]) // 2, rising[turn]


def _prominent(x, turns, min_prominence: float, lo: int = 0, sign: int = 1,
               first: bool = False) -> np.ndarray:
    """Indices of the peaks of ``sign * x[lo:]`` at least ``min_prominence`` prominent.

    ``turns`` is the candidate pass of ``x``; with ``sign`` -1 its bottoms
    are the tops.  With ``first``, at most the first such peak is returned.

    Tops and bottoms alternate, so the minimum between two neighbouring tops
    is the bottom between them (or the end sample), and each of a top's two
    minima is at most that gap: ``height - max(gap_left, gap_right)`` bounds
    its prominence from below.  When the bound clears ``min_prominence`` for
    every top read (the first alone, with ``first``), as on a clean
    ringdown, the exact pass is skipped.  The nearest strictly higher sample
    beside a top lies no farther out than the nearest strictly higher top,
    so that pass, ``_lowest_back_to_higher``, runs over the tops alone.

    It runs over the tops from the first undecided one to the last, not
    past the decided tops on either side.  A decided top's gaps lie at
    least ``min_prominence`` below it, and that includes the gap it shares
    with the run.  So a top of the run at least as high as it clears the
    floor on that side however far the pass looks, and a lower one has its
    nearest higher top inside the run or at that decided top.
    """
    into, at, top = turns
    k = into.searchsorted(lo)
    at, top = at[k:], top[k:]
    if len(at) == 0:
        return at
    # the turns between the two end samples: the tops are every other one
    # from s, and each top's gaps sit on either side of it
    ends = x[np.concatenate(((lo,), at, (len(x) - 1,)))]
    if sign < 0:
        ends = -ends
    s = int(top[0] != (sign > 0))
    heights = ends[s + 1:-1:2]
    n = len(heights)
    left, right = ends[s:s + 2 * n:2], ends[s + 2:s + 2 * n + 1:2]
    with np.errstate(all="ignore"):
        keep = heights - np.maximum(left, right) >= min_prominence
        if not (keep[:1] if first else keep).all():
            # with first, only the undecided tops ahead of the first decided one matter
            undecided = np.flatnonzero(~keep[:keep.argmax() if first and keep.any() else n])
            a, b = undecided[0], undecided[-1] + 1
            h = heights[a:b].tolist()
            lows = np.maximum(_lowest_back_to_higher(h, left[a:b].tolist()),
                              _lowest_back_to_higher(h[::-1], right[a:b][::-1].tolist())[::-1])
            keep[a:b] = heights[a:b] - lows >= min_prominence
    peaks = at[s::2][keep]
    return peaks[:1] if first else peaks


def _find_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` at least ``min_prominence`` prominent."""
    return _prominent(x, _turns(x), min_prominence)


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


def _require_finite(x: np.ndarray) -> None:
    """A non-finite sample leaves the peaks undefined."""
    if not np.all(np.isfinite(x)):
        raise UndefinedMetricError("non-finite sample in the peak search")


_BESIDE = np.array([[-1], [0], [1]])  # a peak's neighbourhood, one row per sample


def _refine(t: np.ndarray, peaks: list) -> list:
    """Times and values of peaks, refined by a parabola through each and both neighbours.

    ``peaks`` holds one ``(x, i, sign)`` per channel, the peaks ``i`` of
    ``sign * x``; each peak is interior, and one fit runs on all of them.
    Returns one ``(times, values)`` per channel.
    """
    if not peaks:
        return []
    rows = [i + _BESIDE for _, i, _ in peaks]
    t0, t1, t2 = t[np.concatenate(rows, axis=1)]
    y0, y1, y2 = np.concatenate(
        [x[k] if sign > 0 else -x[k] for (x, _, sign), k in zip(peaks, rows)], axis=1)
    # near the ends of the float range the fit overflows to inf and nan, and
    # a zero denominator is replaced below; none is an error
    with np.errstate(all="ignore"):
        denom = y0 - 2.0 * y1 + y2
        delta = np.clip(np.where(denom == 0.0, 0.0, 0.5 * (y0 - y2) / denom), -0.5, 0.5)
        times = t1 + delta * np.where(delta >= 0, t2 - t1, t1 - t0)
        values = y1 - 0.25 * (y0 - y2) * delta
        # a parabola only applies to locally smooth maxima; at a kink the
        # vertex estimate can overshoot, so cap it by the shallower side.  A
        # negative zero cap stays negative (np.maximum would return +0.0), so
        # a -0.0 peak keeps its sign
        cap = 0.5 * np.minimum(y1 - y0, y1 - y2)
        cap = np.where(cap < 0.0, 0.0, cap)
        values = np.where(values - y1 > cap, y1 + cap, values)
    ends = np.cumsum([len(i) for _, i, _ in peaks])
    return [(times[b - len(i):b], values[b - len(i):b]) for (_, i, _), b in zip(peaks, ends)]


def _channel_peaks(t, x, turns=None) -> tuple[np.ndarray, np.ndarray]:
    """Prominent local maxima of ``x``, refined; ``turns`` is the pass of a finite ``x``.

    Without ``turns`` a non-finite sample raises :class:`UndefinedMetricError`.
    """
    if turns is None:
        _require_finite(x)
        turns = _turns(x)
    return _refine(t, [(x, _prominent(x, turns, PEAK_MIN_PROMINENCE), 1)])[0]


def _post_stimulus(tr: Trace, t_stim_end: float) -> tuple[int, int]:
    """Bounds of the free samples from ``t_stim_end`` to the first clamped one."""
    lo = int(np.searchsorted(tr.t, t_stim_end))
    held = tr.clamped[lo:]
    return lo, lo + (int(held.argmax()) if held.any() else len(held))


def _first_peaks(tr: Trace, lo: int, hi: int, v_turns=None) -> list:
    """U's and V's first peak in ``lo:hi``, as :func:`_refine` groups.

    ``v_turns`` is the candidate pass of ``V[:hi]`` where the caller has made it.
    """
    if hi - lo < 3:
        raise UndefinedMetricError("not enough post-stimulus samples for peak search")
    groups = []
    for x, turns in ((tr.U[:hi], None), (tr.V[:hi], v_turns)):
        _require_finite(x[lo:])
        i = _prominent(x, _turns(x) if turns is None else turns, PEAK_MIN_PROMINENCE, lo,
                       first=True)
        if len(i) == 0:
            raise UndefinedMetricError("no local maximum after the stimulus")
        groups.append((x, i, 1))
    return groups


def extract_first_peak(tr: Trace, t_stim_end: float) -> tuple[float, float]:
    """First local maximum of U and of V after the stimulus ends.

    Both are read between the stimulus end and the first clamped sample; a
    channel with no peak there (constant or monotone, or cut short by a
    spike) raises :class:`UndefinedMetricError`.
    """
    (_, u), (_, v) = _refine(tr.t, _first_peaks(tr, *_post_stimulus(tr, t_stim_end)))
    return float(u[0]), float(v[0])


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d array, by one full sort.

    ``np.median`` imports ``numpy.ma``, which with its first call cost
    1.7 MB of peak memory.  The middle pair is averaged as ``np.median``
    averages it, ``(a + b) / 2``, so on arrays without zeros the two agree
    bit for bit; a zero median may differ in its sign.  A NaN sorts last and
    makes the median NaN.
    """
    s = np.sort(x)
    n = len(s)
    if math.isnan(s[-1]):
        return math.nan
    if n % 2:
        return float(s[n // 2])
    return (float(s[n // 2 - 1]) + float(s[n // 2])) / 2.0


@lru_cache(maxsize=None)
def _smooth_length(n: int) -> int:
    """The largest 2^a 3^b 5^c not above ``n`` (at least 1)."""
    best = 1
    p5 = 1
    while p5 <= n:
        p35 = p5
        while p35 <= n:
            best = max(best, p35 << ((n // p35).bit_length() - 1))
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=None)
def _hann(m: int) -> np.ndarray:
    """``np.hanning(m)``, read-only and shared by every lane."""
    w = np.hanning(m)
    w.flags.writeable = False
    return w


def _fft_peak_frequency(t: np.ndarray, x: np.ndarray) -> float:
    """Frequency of the tapered-spectrum maximum, parabolically interpolated.

    The spectrum is taken of the last m samples, m the largest
    2^a 3^b 5^c not above their count: a length with a large prime factor
    (6001 = 17 * 353) sends the FFT down its slow general-length path.
    Trimming keeps the window on signal; zero-padding to a fast length
    would instead leak the mean into the lowest bins.
    """
    n = len(x)
    if n < 16:
        raise UndefinedMetricError("trace too short for a spectral estimate")
    m = _smooth_length(n)
    t, x = t[n - m:], x[n - m:]
    dt = _median(np.diff(t))
    y = (x - np.mean(x)) * _hann(m)
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
    return float((k + delta) / (m * dt))


def _free_v(tr: Trace, turns=None) -> tuple:
    """The candidate pass of V (``turns`` where made) of a trace that never fired.

    A clamped sample means the run fired, and its V samples hold a spike
    train, not a resonance; that, like a non-finite sample, raises
    :class:`UndefinedMetricError`.
    """
    if np.any(tr.clamped):
        raise UndefinedMetricError("the trace holds clamped samples: the run fired")
    _require_finite(tr.V)
    return _turns(tr.V) if turns is None else turns


def resonant_frequency_estimates(tr: Trace) -> tuple[float, float]:
    """(median inter-peak estimate, spectral estimate) of the V oscillation."""
    return _frequency_estimates(tr.t, tr.V, _channel_peaks(tr.t, tr.V, _free_v(tr)))


def _frequency_estimates(
    t: np.ndarray, v: np.ndarray, peaks: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float]:
    """:func:`resonant_frequency_estimates` of the V samples ``t, v`` with peaks ``peaks``."""
    times, _ = peaks
    if len(times) < 3:
        raise UndefinedMetricError("fewer than 3 oscillation peaks detected")
    intervals = np.diff(times)
    f_peaks = _median(1.0 / intervals)
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
    trace with fewer than 5 usable peaks, or with clamped samples, raises
    :class:`UndefinedMetricError`.
    """
    return _q_factor(*_refine(tr.t, _extrema(tr.V, _free_v(tr))))


def _extrema(v: np.ndarray, turns: tuple) -> list:
    """V's prominent peaks and troughs (the peaks of -V), as :func:`_refine` groups."""
    return [(v, _prominent(v, turns, PEAK_MIN_PROMINENCE, sign=sign), sign) for sign in (1, -1)]


def _q_factor(peaks: tuple, troughs: tuple) -> float:
    """:func:`q_factor` of V's refined peaks and troughs (the peaks of -V)."""
    peak_t, peak_v = peaks
    trough_t, trough_v = troughs
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
    f_res = _median(1.0 / intervals)
    slope = float(np.polyfit(times, np.log(heights), 1)[0])
    span = float(times[-1] - times[0])
    if slope >= 0.0 or -slope * span < 5e-3:
        return math.inf
    tau = -1.0 / slope
    return math.pi * f_res * tau


def ringdown_metrics(tr: Trace, t_stim_end: float, settle_window: float) -> MetricsRecord:
    """Assemble the four ringdown metrics, flagging each that is undefined."""
    flags: list[str] = []
    baseline_U = baseline_V = first_peak_U = first_peak_V = f_res = q = math.nan
    try:
        baseline_U, baseline_V = extract_baseline(tr, settle_window)
    except UndefinedMetricError:
        # a die whose ringdown spiked holds clamped samples in the tail
        flags.append("baseline-undefined")
    lo, hi = _post_stimulus(tr, t_stim_end)
    # V's one candidate pass.  Unless the run fired, the first-peak window
    # runs to the end of the trace, and this is the pass over all of V that
    # the frequency and Q read too; a run that fired has neither
    v_turns = _turns(tr.V[:hi])
    first: list = []
    try:
        first = _first_peaks(tr, lo, hi, v_turns)
    except UndefinedMetricError:
        flags.append("no-peak")
    extrema: list = []
    try:
        extrema = _extrema(tr.V, _free_v(tr, v_turns))
    except UndefinedMetricError:
        flags += ["f-res-undefined", "q-undefined"]
    # every peak read is refined in one pass
    refined = _refine(tr.t, first + extrema)
    if first:
        first_peak_U, first_peak_V = (float(values[0]) for _, values in refined[:2])
    if extrema:
        peaks, troughs = refined[len(first):]
        try:
            f_res, f_fft = _frequency_estimates(tr.t, tr.V, peaks)
            if abs(f_res - f_fft) > FREQ_CONSISTENCY_TOL * f_res:
                flags.append("freq-estimators-disagree")
        except UndefinedMetricError:
            flags.append("f-res-undefined")
        try:
            q = _q_factor(peaks, troughs)
            if math.isinf(q):
                flags.append("infinite-q")
        except UndefinedMetricError:
            flags.append("q-undefined")
    if tr.any_overflow:
        flags.append("overflow")
    return MetricsRecord(baseline_U, baseline_V, first_peak_U, first_peak_V, f_res, q,
                         tuple(flags))


def map_lanes(fn, items, lanes: int = MAX_LANES) -> list:
    """``[fn(x) for x in items]`` on ``min(len(items), os.cpu_count(), lanes, MAX_LANES)`` lanes.

    The calling thread is one lane, and each further lane is a helper
    thread; with one lane no thread starts.  Each lane takes the next
    untaken item until none is left, and the results keep the input order.
    A lane whose item raises stops, and once any lane has failed no lane
    takes another item.  The items are taken in input order, so every item
    before the first failing one has run by then, and that first failure in
    input order is raised, as in the serial loop.  An interrupt of the
    calling thread likewise stops new items.
    """
    items = list(items)
    results = [None] * len(items)
    failures: dict[int, BaseException] = {}
    untaken = iter(range(len(items)))
    lock = Lock()

    def lane() -> None:
        while True:
            with lock:
                i = None if failures else next(untaken, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised below, once every lane has stopped
                with lock:
                    failures[i] = exc
                return

    helpers = [Thread(target=lane)
               for _ in range(min(len(items), os.cpu_count() or 1, lanes, MAX_LANES) - 1)]
    for helper in helpers:
        helper.start()
    try:
        lane()
    finally:
        with lock:
            untaken = iter(())  # however the calling lane ended, no lane takes another item
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def firing_rate(events: Sequence[SpikeEvent]) -> FiringRate:
    """Mean and standard deviation of inverse inter-spike intervals.

    With fewer than two events there is no interval to invert and the rate
    is reported as 0 Hz with ``defined`` False.
    """
    if len(events) < 2:
        return FiringRate(mean_hz=0.0, std_hz=math.nan, n_intervals=0)
    rates = 1.0 / np.diff(np.asarray([e.t_req for e in events]))
    return FiringRate(
        mean_hz=float(np.mean(rates)),
        std_hz=float(np.std(rates)),
        n_intervals=len(rates),
    )


def linear_fit(x: np.ndarray, y: np.ndarray) -> dict:
    """Least-squares line y = slope*x + intercept with R^2 and the mid-range y.

    Fewer than 2 points define no line and raise :class:`UndefinedMetricError`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise UndefinedMetricError(f"a line fit needs at least 2 finite points, got {len(x)}")
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return {
        "slope_Hz_per_A": float(slope),
        "intercept_Hz": float(intercept),
        "r_squared": r2,
        "midrange_Hz": _median(y),
    }


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
    inter-spike interval.  Each level drives the neuron with one constant
    :func:`~rfneuron.stimuli.step` from t = 0.  The levels run on
    :func:`map_lanes`, one lane per CPU up to ``MAX_LANES``, and the rows
    come back in level order whatever the lane count.  There is no option
    for it.
    """
    require_increasing(levels, "levels must be strictly increasing")
    if spikes_per_point < 2:
        raise ValueError(f"spikes_per_point must be >= 2, got {spikes_per_point!r}")
    if cfg is None:
        cfg = IntegratorConfig(t_end=timeout)
    else:
        cfg = replace(cfg, t_end=timeout)
    dp = derive_params(p)
    s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)

    def level_row(level: float) -> tuple[float, float, float]:
        prog = step(level, v_limit=p.V_DD)
        _, events = integrate(s0, p, prog, cfg, protocol, max_events=spikes_per_point)
        rate = firing_rate(events)
        return level, rate.mean_hz, 0.0 if not rate.defined else rate.std_hz

    return map_lanes(level_row, levels)


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
    block (free ringing of the tail) land in the last block.  The bias rows
    run on :func:`map_lanes`, one lane per CPU up to ``MAX_LANES``, and the
    counts come back in row order whatever the lane count.  There is no
    option for it.
    """
    if len(bias_levels) != len(vth_schedule):
        raise ValueError("bias_levels and vth_schedule must have matching lengths")
    if not chirp.freq_blocks:
        raise ValueError("tuning_map requires a chirp program with frequency blocks")
    blocks = chirp.freq_blocks
    freqs = tuple(b.frequency for b in blocks)
    if cfg is None:
        cfg = IntegratorConfig(t_end=blocks[-1].t_end)

    def row_counts(bias_vth: tuple[float, float]) -> list[int]:
        bias, vth = bias_vth
        p = replace(base, I_IU=bias, I_IV=bias, V_th=vth)
        dp = derive_params(p)
        s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
        _, events = integrate(s0, p, chirp, cfg, protocol)
        row = [0] * len(freqs)
        for e in events:
            row[chirp.block_index(e.t_req)] += 1
        return row

    counts = map_lanes(row_counts, zip(bias_levels, vth_schedule))
    return TuningMap(
        bias_levels=tuple(bias_levels),
        frequencies=freqs,
        vth_schedule=tuple(vth_schedule),
        counts=np.array(counts, dtype=int).reshape(len(bias_levels), len(freqs)),
    )
