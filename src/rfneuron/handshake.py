"""Four-phase request/acknowledge handshake around spike generation.

When the comparator sees V cross its threshold from below, the request line
asserts: U is forced to V_reset, V is held at V_th, and the synapses are cut
off until the acknowledge returns.  The acknowledge is abstracted as a
latency: in self-acknowledge mode the hold lasts T_spk; in scripted mode a
per-event delay is inserted before the hold.  Release restores free-running
dynamics from (V_reset, V_th).  A new request can assert only after the
comparator de-asserts, i.e. after V has fallen back below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import NeuronState, Phase
from .errors import ProtocolError, require_finite

__all__ = [
    "AckMode",
    "HandshakeConfig",
    "SpikeEvent",
    "HandshakeFSM",
    "FiringRate",
    "firing_rate",
]


class AckMode(Enum):
    SELF_ACK = "self_ack"
    SCRIPTED_ACK = "scripted_ack"


@dataclass(frozen=True)
class HandshakeConfig:
    """Acknowledge model: fixed self-ack hold or scripted per-event latencies."""

    mode: AckMode = AckMode.SELF_ACK
    T_spk: float = 100e-6
    ack_delays: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        require_finite(self)
        if self.T_spk <= 0.0:
            raise ValueError(f"T_spk must be positive, got {self.T_spk!r}")
        if any(d < 0.0 for d in self.ack_delays):
            raise ValueError("acknowledge delays must be non-negative")

    def hold_duration(self, index: int) -> float:
        """Total clamp duration for event ``index``."""
        if self.mode is AckMode.SELF_ACK:
            return self.T_spk
        if index >= len(self.ack_delays):
            raise ProtocolError(
                f"scripted acknowledge list exhausted at event {index} "
                f"(have {len(self.ack_delays)} delays)"
            )
        return self.ack_delays[index] + self.T_spk


@dataclass(frozen=True)
class SpikeEvent:
    """One output event: request assertion time and dynamics-resume time."""

    index: int
    t_req: float
    t_release: float

    def __post_init__(self) -> None:
        if self.t_release < self.t_req:
            raise ValueError("event release precedes its request")


class HandshakeFSM:
    """Owns the clamp/release cycle of a single integration run.

    Accepts exactly the call sequence (on_threshold -> release)*; anything
    else raises :class:`ProtocolError`.  Events are appended in order and
    never overlap: event i+1 cannot assert before event i released.
    """

    def __init__(self, cfg: HandshakeConfig, V_reset: float, V_th: float):
        self.cfg = cfg
        self.V_reset = V_reset
        self.V_th = V_th
        self.events: list[SpikeEvent] = []
        self._pending: SpikeEvent | None = None

    def on_threshold(self, t_cross: float, s: NeuronState) -> tuple[NeuronState, SpikeEvent]:
        """Assert the request: clamp the state and schedule the release."""
        if s.phase is not Phase.OSCILLATE or self._pending is not None:
            raise ProtocolError("threshold event while a handshake is already in flight")
        if self.events and t_cross < self.events[-1].t_release:
            raise ProtocolError("threshold event inside the previous handshake interval")
        index = len(self.events)
        event = SpikeEvent(
            index=index,
            t_req=t_cross,
            t_release=t_cross + self.cfg.hold_duration(index),
        )
        self.events.append(event)
        self._pending = event
        clamped = NeuronState(t=t_cross, U=self.V_reset, V=self.V_th, phase=Phase.CLAMPED)
        return clamped, event

    def release(self, s: NeuronState, e: SpikeEvent) -> NeuronState:
        """De-assert: resume free dynamics from (V_reset, V_th) at t_release."""
        if s.phase is not Phase.CLAMPED or self._pending is None:
            raise ProtocolError("release without a pending handshake")
        if e is not self._pending and e != self._pending:
            raise ProtocolError("release for a different event than the pending one")
        if s.t < e.t_release:
            raise ProtocolError(
                f"release at t={s.t!r} before scheduled t_release={e.t_release!r}"
            )
        self._pending = None
        return NeuronState(t=e.t_release, U=self.V_reset, V=self.V_th, phase=Phase.OSCILLATE)


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
