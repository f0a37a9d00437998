"""Four-phase handshake FSM, spike events, rate statistics, serialization."""

import math

import pytest

from rfneuron import (
    AckMode,
    ConfigError,
    FiringRate,
    HandshakeConfig,
    ProtocolError,
    SpikeEvent,
    firing_rate,
)
from rfneuron.cli import write_csv
from rfneuron.handshake import HandshakeFSM


def make_fsm(cfg=None):
    return HandshakeFSM(HandshakeConfig(T_spk=100e-6) if cfg is None else cfg)


class TestOnThreshold:
    def test_self_ack_schedule(self):
        fsm = make_fsm(HandshakeConfig(T_spk=100e-6))
        event = fsm.on_threshold(10e-3)
        assert (event.index, event.t_req) == (0, 10e-3)
        assert event.t_release == pytest.approx(10.1e-3)
        assert fsm.events == [event]

    def test_scripted_ack_adds_latency(self):
        cfg = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=100e-6,
                              ack_delays=(1e-3,))
        fsm = make_fsm(cfg)
        event = fsm.on_threshold(5e-3)
        assert event.t_release == pytest.approx(5e-3 + 1e-3 + 100e-6)

    def test_scripted_ack_exhaustion_is_protocol_error(self):
        cfg = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=100e-6,
                              ack_delays=(1e-3,))
        fsm = make_fsm(cfg)
        fsm.release(fsm.on_threshold(5e-3))
        with pytest.raises(ProtocolError, match="exhausted"):
            fsm.on_threshold(20e-3)

    def test_threshold_during_handshake_rejected(self):
        fsm = make_fsm()
        fsm.on_threshold(1e-3)
        with pytest.raises(ProtocolError, match="in flight"):
            fsm.on_threshold(1.05e-3)

    def test_threshold_before_the_previous_release_rejected(self):
        fsm = make_fsm()
        e = fsm.on_threshold(1e-3)
        fsm.release(e)
        with pytest.raises(ProtocolError, match="previous handshake interval"):
            fsm.on_threshold(e.t_release - 1e-6)
        assert fsm.events == [e]


class TestRelease:
    def test_release_restores_oscillation(self):
        # after the release the next request may assert, from t_release on
        fsm = make_fsm()
        e = fsm.on_threshold(1e-3)
        assert fsm.release(e) is None
        nxt = fsm.on_threshold(e.t_release)
        assert (nxt.index, nxt.t_req) == (1, e.t_release)

    def test_release_without_request_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="without a pending"):
            make_fsm().release(SpikeEvent(0, 1e-3, 1.1e-3))

    def test_double_release_is_protocol_error(self):
        fsm = make_fsm()
        e = fsm.on_threshold(1e-3)
        fsm.release(e)
        with pytest.raises(ProtocolError, match="without a pending"):
            fsm.release(e)

    def test_release_of_another_event_is_protocol_error(self):
        fsm = make_fsm()
        e = fsm.on_threshold(1e-3)
        with pytest.raises(ProtocolError, match="different event"):
            fsm.release(SpikeEvent(e.index, e.t_req, e.t_release + 1e-6))
        fsm.release(e)  # the pending event is still the one to release

    def test_event_list_stays_ordered_and_disjoint(self):
        fsm = make_fsm()
        t = 0.0
        for _ in range(5):
            t += 3e-3
            e = fsm.on_threshold(t)
            fsm.release(e)
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
        with pytest.raises(ConfigError, match="T_spk must be positive, got 0.0"):
            HandshakeConfig(T_spk=0.0)

    def test_list_of_delays_is_kept_as_a_tuple(self):
        with pytest.raises(ConfigError, match="ack_delays must be finite"):
            HandshakeConfig(mode=AckMode.SCRIPTED_ACK, ack_delays=[0.1, math.nan])
        from_list = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, ack_delays=[0.1, 0.2])
        assert from_list == HandshakeConfig(mode=AckMode.SCRIPTED_ACK, ack_delays=(0.1, 0.2))
        assert hash(from_list) == hash(HandshakeConfig(mode=AckMode.SCRIPTED_ACK,
                                                       ack_delays=(0.1, 0.2)))

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError, match=r"ack_delays must be non-negative, got \(-0.001,\)"):
            HandshakeConfig(mode=AckMode.SCRIPTED_ACK, ack_delays=(-1e-3,))

    @pytest.mark.parametrize("mode", [3, "self_ack", None])
    def test_mode_must_be_an_ack_mode(self, mode):
        with pytest.raises(ConfigError, match=r"mode must be one of \['self_ack', 'scripted_ack'\]"):
            HandshakeConfig(mode=mode)
