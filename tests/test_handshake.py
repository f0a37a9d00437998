"""Four-phase handshake FSM, spike events, rate statistics, serialization."""

import math

import pytest

from rfneuron import (
    AckMode,
    CircuitParams,
    FiringRate,
    HandshakeConfig,
    NeuronState,
    Phase,
    ProtocolError,
    SpikeEvent,
    firing_rate,
)
from rfneuron.cli import write_csv
from rfneuron.handshake import HandshakeFSM


def make_fsm(cfg=None):
    p = CircuitParams()
    if cfg is None:
        cfg = HandshakeConfig(T_spk=100e-6)
    return HandshakeFSM(cfg, V_reset=p.V_reset, V_th=p.V_th)


def oscillating(t, U=0.74, V=0.8501):
    return NeuronState(t=t, U=U, V=V, phase=Phase.OSCILLATE)


class TestOnThreshold:
    def test_self_ack_schedule(self):
        fsm = make_fsm(HandshakeConfig(T_spk=100e-6))
        clamped, event = fsm.on_threshold(10e-3, oscillating(10e-3))
        assert event.t_req == 10e-3
        assert event.t_release == pytest.approx(10.1e-3)
        assert clamped.phase is Phase.CLAMPED
        assert clamped.U == 0.750 and clamped.V == 0.850  # operating-table values

    def test_scripted_ack_adds_latency(self):
        cfg = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=100e-6,
                              ack_delays=(1e-3,))
        fsm = make_fsm(cfg)
        _, event = fsm.on_threshold(5e-3, oscillating(5e-3))
        assert event.t_release == pytest.approx(5e-3 + 1e-3 + 100e-6)

    def test_scripted_ack_exhaustion_is_protocol_error(self):
        cfg = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=100e-6,
                              ack_delays=(1e-3,))
        fsm = make_fsm(cfg)
        clamped, e = fsm.on_threshold(5e-3, oscillating(5e-3))
        fsm.release(NeuronState(t=e.t_release, U=0.75, V=0.85, phase=Phase.CLAMPED), e)
        with pytest.raises(ProtocolError):
            fsm.on_threshold(20e-3, oscillating(20e-3))

    def test_threshold_during_handshake_rejected(self):
        fsm = make_fsm()
        fsm.on_threshold(1e-3, oscillating(1e-3))
        with pytest.raises(ProtocolError):
            fsm.on_threshold(1.05e-3, oscillating(1.05e-3))


class TestRelease:
    def test_release_restores_oscillation(self):
        fsm = make_fsm()
        clamped, e = fsm.on_threshold(1e-3, oscillating(1e-3))
        out = fsm.release(
            NeuronState(t=e.t_release, U=clamped.U, V=clamped.V, phase=Phase.CLAMPED), e
        )
        assert out.phase is Phase.OSCILLATE
        assert (out.U, out.V) == (0.750, 0.850)
        assert out.t == e.t_release

    def test_early_release_is_protocol_error(self):
        fsm = make_fsm()
        clamped, e = fsm.on_threshold(1e-3, oscillating(1e-3))
        early = NeuronState(t=e.t_release - 1e-6, U=clamped.U, V=clamped.V,
                            phase=Phase.CLAMPED)
        with pytest.raises(ProtocolError):
            fsm.release(early, e)

    def test_double_release_is_protocol_error(self):
        fsm = make_fsm()
        clamped, e = fsm.on_threshold(1e-3, oscillating(1e-3))
        s = NeuronState(t=e.t_release, U=clamped.U, V=clamped.V, phase=Phase.CLAMPED)
        fsm.release(s, e)
        with pytest.raises(ProtocolError):
            fsm.release(s, e)

    def test_event_list_stays_ordered_and_disjoint(self):
        fsm = make_fsm()
        t = 0.0
        for _ in range(5):
            t += 3e-3
            clamped, e = fsm.on_threshold(t, oscillating(t))
            fsm.release(
                NeuronState(t=e.t_release, U=clamped.U, V=clamped.V,
                            phase=Phase.CLAMPED), e)
            t = e.t_release
        events = fsm.events
        assert [e.index for e in events] == list(range(5))
        for a, b in zip(events, events[1:]):
            assert b.t_req >= a.t_release


class TestFiringRate:
    def test_exact_spacing(self):
        events = [SpikeEvent(i, 10e-3 * (i + 1), 10e-3 * (i + 1) + 1e-4)
                  for i in range(10)]
        r = firing_rate(events)
        assert r.mean_hz == pytest.approx(100.0, rel=1e-12)
        assert r.std_hz == pytest.approx(0.0, abs=1e-9)
        assert r.defined

    def test_no_events_reports_zero_undefined(self):
        r = firing_rate([])
        assert r.mean_hz == 0.0
        assert not r.defined
        assert math.isnan(r.std_hz)

    def test_single_event_reports_zero_undefined(self):
        r = firing_rate([SpikeEvent(0, 1e-3, 1.1e-3)])
        assert r.mean_hz == 0.0
        assert not r.defined


class TestSerialization:
    def test_csv_has_12_significant_digits(self, tmp_path):
        events = [SpikeEvent(0, 1.0 / 3.0, 1.0 / 3.0 + 1e-4)]
        path = tmp_path / "events.csv"
        write_csv(path, ("index", "t_req_s", "t_release_s"),
                  ((e.index, e.t_req, e.t_release) for e in events))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,t_req_s,t_release_s"
        assert lines[1] == "0,0.333333333333,0.333433333333"


class TestConfigValidation:
    def test_nonpositive_hold_rejected(self):
        with pytest.raises(ValueError):
            HandshakeConfig(T_spk=0.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            HandshakeConfig(mode=AckMode.SCRIPTED_ACK, ack_delays=(-1e-3,))
