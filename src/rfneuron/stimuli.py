"""Piecewise stimulus programs and the voltage-controlled synapse model.

Programs are ordered lists of constant-voltage segments (t_start, t_end,
V_exc, V_inh) tiling [0, inf); the final segment is open-ended.  Because
every segment is constant, an integrator that lands on segment boundaries
sees an exactly smooth right-hand side inside each step.

Voltages are *effective drives* in [0, V_DD]: the inhibitory drive is the
inhibitory input voltage itself, the excitatory drive is the supply-referred
swing of the excitatory input.  Both synapses are exponential
voltage-to-current generators with the quiescent leak subtracted, so a zero
drive injects exactly zero current.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

from .core import CircuitParams
from .errors import ConfigError

__all__ = [
    "Polarity",
    "Segment",
    "FrequencyBlock",
    "StimulusProgram",
    "pulse",
    "step",
    "spiking_chirp",
    "synapse_current",
]


class Polarity(Enum):
    EXC = "exc"
    INH = "inh"


@dataclass(frozen=True)
class Segment:
    """One constant-drive interval; ``t_end = inf`` marks the final segment."""

    t_start: float
    t_end: float
    V_exc: float
    V_inh: float


@dataclass(frozen=True)
class FrequencyBlock:
    """Time span of one constant-frequency pulse block within a chirp."""

    t_start: float
    t_end: float
    frequency: float


class StimulusProgram:
    """Ordered, gap-free sequence of constant-drive segments.

    The breakpoint list (finite segment start times) is exposed so the
    integrator can split steps exactly at drive discontinuities.  Programs
    are immutable after construction and freely shareable.
    """

    def __init__(
        self,
        segments: list[Segment],
        v_limit: float = 1.5,
        freq_blocks: tuple[FrequencyBlock, ...] | None = None,
    ):
        if not segments:
            raise ConfigError("a stimulus program needs at least one segment")
        if segments[0].t_start != 0.0:
            raise ConfigError("the first segment must start at t = 0")
        if not math.isinf(segments[-1].t_end):
            raise ConfigError("the final segment must be open-ended (t_end = inf)")
        for seg, nxt in zip(segments, segments[1:]):
            if not seg.t_end == nxt.t_start:
                raise ConfigError(
                    f"segments must tile contiguously: {seg.t_end!r} != {nxt.t_start!r}"
                )
            if not seg.t_start < seg.t_end:
                raise ConfigError("segments must have positive width")
        for seg in segments:
            for v in (seg.V_exc, seg.V_inh):
                if not 0.0 <= v <= v_limit:
                    raise ConfigError(f"drive voltage {v!r} outside [0, {v_limit}]")
        self._segments = tuple(segments)
        self._starts = [seg.t_start for seg in segments]
        self.freq_blocks = freq_blocks
        self._block_starts = [blk.t_start for blk in freq_blocks or ()]

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    @property
    def breakpoints(self) -> list[float]:
        """Finite start times of all segments (ascending)."""
        return list(self._starts)

    @property
    def is_constant(self) -> bool:
        return len(self._segments) == 1

    def segment_index(self, t: float) -> int:
        """Index of the segment whose half-open interval [t_start, t_end) contains ``t``."""
        return max(bisect.bisect_right(self._starts, t) - 1, 0)

    def drives_at(self, t: float) -> tuple[float, float]:
        seg = self._segments[self.segment_index(t)]
        return seg.V_exc, seg.V_inh

    def block_index(self, t: float) -> int:
        """Index into ``freq_blocks`` of the chirp block active at ``t``.

        Times after the last block (the free-ringing tail) belong to the
        last block.  Raises ValueError for a program without blocks.
        """
        if not self._block_starts:
            raise ValueError("block_index requires a chirp program with frequency blocks")
        return max(bisect.bisect_right(self._block_starts, t) - 1, 0)


def _segment(t0: float, t1: float, v: float, polarity: Polarity) -> Segment:
    """Drive ``v`` over [t0, t1) on the synapse that ``polarity`` names."""
    if polarity is Polarity.EXC:
        return Segment(t0, t1, v, 0.0)
    return Segment(t0, t1, 0.0, v)


def _onoff(spans: list[tuple[float, float]], amplitude: float, polarity: Polarity,
           v_limit: float, freq_blocks: tuple[FrequencyBlock, ...] | None = None,
           ) -> StimulusProgram:
    """Build a program that is ``amplitude`` inside the spans and 0 elsewhere."""
    segments: list[Segment] = []
    cursor = 0.0
    for t0, t1 in spans:
        if t0 > cursor:
            segments.append(_segment(cursor, t0, 0.0, polarity))
        segments.append(_segment(t0, t1, amplitude, polarity))
        cursor = t1
    segments.append(_segment(cursor, math.inf, 0.0, polarity))
    return StimulusProgram(segments, v_limit=v_limit, freq_blocks=freq_blocks)


def pulse(
    t0: float,
    width: float,
    amplitude: float,
    polarity: Polarity = Polarity.INH,
    v_limit: float = 1.5,
) -> StimulusProgram:
    """Single rectangular pulse: off / on / off (two segments when t0 = 0)."""
    if width <= 0.0:
        raise ConfigError(f"pulse width must be positive, got {width!r}")
    if t0 < 0.0:
        raise ConfigError(f"pulse onset must be non-negative, got {t0!r}")
    if not 0.0 <= amplitude <= v_limit:
        raise ConfigError(f"pulse amplitude {amplitude!r} outside [0, {v_limit}]")
    return _onoff([(t0, t0 + width)], amplitude, polarity, v_limit)


def step(
    level: float,
    polarity: Polarity = Polarity.EXC,
    v_limit: float = 1.5,
) -> StimulusProgram:
    """Constant ``level`` drive from t = 0 on: one open-ended segment."""
    return StimulusProgram([_segment(0.0, math.inf, level, polarity)], v_limit=v_limit)


def spiking_chirp(
    f_start: float,
    f_end: float,
    n_freqs: int,
    spikes_per_freq: int,
    pulse_width: float,
    amplitude: float,
    polarity: Polarity = Polarity.INH,
    v_limit: float = 1.5,
) -> StimulusProgram:
    """Pulse-train chirp stepping through ``n_freqs`` frequencies.

    Each block holds ``spikes_per_freq`` pulses at its frequency, so the
    block lasts spikes_per_freq / f and the program's total duration is the
    sum of block lengths.  Frequencies are geometrically spaced (one octave
    split into equal ratio steps reads as a chromatic scale).
    """
    if not f_start < f_end:
        raise ConfigError("chirp needs f_start < f_end")
    if n_freqs < 1 or spikes_per_freq < 1:
        raise ConfigError("chirp needs at least one frequency and one pulse per block")
    if pulse_width <= 0.0 or pulse_width >= 1.0 / f_end:
        raise ConfigError(
            f"pulse width {pulse_width!r} must lie in (0, 1/f_end = {1.0 / f_end!r})"
        )
    if not 0.0 <= amplitude <= v_limit:
        raise ConfigError(f"chirp amplitude {amplitude!r} outside [0, {v_limit}]")

    if n_freqs == 1:
        freqs = [f_start]
    else:
        ratio = (f_end / f_start) ** (1.0 / (n_freqs - 1))
        freqs = [f_start * ratio**k for k in range(n_freqs)]

    spans: list[tuple[float, float]] = []
    blocks: list[FrequencyBlock] = []
    t = 0.0
    for f in freqs:
        period = 1.0 / f
        block_start = t
        for _ in range(spikes_per_freq):
            spans.append((t, t + pulse_width))
            t += period
        blocks.append(FrequencyBlock(block_start, t, f))
    return _onoff(spans, amplitude, polarity, v_limit, freq_blocks=tuple(blocks))


def synapse_current(V_exc_in: float, V_inh_in: float, p: CircuitParams) -> float:
    """Net synaptic current into the U node, amperes.

    I_in = I_s0_exc (e^{k Ve/U_T} - 1) - I_s0_inh (e^{k Vi/U_T} - 1) with
    k = ``p.kappa_n``; the -1 terms cancel the quiescent leak so zero drive
    is exactly quiescent.  This is the free-running current: during a
    handshake the series gates cut the synapses off, and ``integrate``
    holds the input at zero for the whole clamp.
    """
    r = p.kappa_n / p.U_T
    return (
        p.I_s0_exc * (math.exp(r * V_exc_in) - 1.0)
        - p.I_s0_inh * (math.exp(r * V_inh_in) - 1.0)
    )
