"""Four-phase request/acknowledge handshake around spike generation.

When the comparator sees V cross its threshold from below, the request line
asserts: U is forced to V_reset, V is held at V_th, and the synapses are cut
off until the acknowledge returns.  The acknowledge is abstracted as a
latency: in self-acknowledge mode the hold lasts T_spk; in scripted mode a
per-event delay is inserted before the hold.  Release restores free-running
dynamics from (V_reset, V_th).  A new request can assert only after the
comparator de-asserts, i.e. after V has fallen back below threshold.

Rates measured from the events are computed in :mod:`rfneuron.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    ProtocolError, require_finite, require_member, require_nonnegative, require_positive,
)

__all__ = ["AckMode", "HandshakeConfig", "SpikeEvent", "HandshakeFSM"]


class AckMode(Enum):
    SELF_ACK = "self_ack"
    SCRIPTED_ACK = "scripted_ack"


@dataclass(frozen=True)
class HandshakeConfig:
    """Acknowledge model: fixed self-ack hold or scripted per-event latencies."""

    mode: AckMode = AckMode.SELF_ACK
    T_spk: float = 60e-6  # CircuitParams.T_spk, the hold of protocol=None
    ack_delays: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # a list would escape require_finite and require_nonnegative, which look inside
        # tuples, and leave the config unhashable
        object.__setattr__(self, "ack_delays", tuple(self.ack_delays))
        require_finite(self)
        require_member(self, "mode", AckMode)
        require_positive(self, "T_spk")
        require_nonnegative(self, "ack_delays")

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
    """Owns the request/release cycle of a single integration run.

    Accepts exactly the call sequence (on_threshold -> release)*; anything
    else raises :class:`ProtocolError`.  Events are appended in order and
    never overlap: event i+1 cannot assert before event i released.  The
    clamp itself, (V_reset, V_th) until ``t_release``, is the span runner's.
    """

    def __init__(self, cfg: HandshakeConfig):
        self.cfg = cfg
        self.events: list[SpikeEvent] = []
        self._pending: SpikeEvent | None = None

    def on_threshold(self, t_cross: float) -> SpikeEvent:
        """Assert the request at ``t_cross`` and schedule its release."""
        if self._pending is not None:
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
        return event

    def release(self, e: SpikeEvent) -> None:
        """De-assert the pending request ``e``; free dynamics resume at ``e.t_release``."""
        if self._pending is None:
            raise ProtocolError("release without a pending handshake")
        if e != self._pending:
            raise ProtocolError("release for a different event than the pending one")
        self._pending = None
