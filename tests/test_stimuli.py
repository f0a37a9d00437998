"""Stimulus program construction and the exponential synapse."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfneuron import (
    ConfigError,
    IntegratorConfig,
    NeuronState,
    Polarity,
    StimulusProgram,
    derive_params,
    integrate,
    pulse,
    spiking_chirp,
    step,
    synapse_current,
)

# mpmath oracle: sum of 10/f over 13 geometric frequencies 131 -> 262 Hz
CHIRP_TOTAL_DURATION = 0.718211975004037
LAST_BLOCK_PERIOD = 3.81679389312977e-3


def assert_tiles(prog: StimulusProgram):
    segs = prog.segments
    assert segs[0].t_start == 0.0
    assert math.isinf(segs[-1].t_end)
    for a, b in zip(segs, segs[1:]):
        assert a.t_end == b.t_start


class TestPulse:
    def test_breakpoints_match_figure_setup(self):
        prog = pulse(1e-3, 100e-6, 0.5, Polarity.INH)
        assert prog.breakpoints == pytest.approx([0.0, 1e-3, 1.1e-3])
        assert_tiles(prog)

    def test_zero_amplitude_equals_zero_stimulus(self):
        prog = pulse(1e-3, 100e-6, 0.0, Polarity.INH)
        for seg in prog.segments:
            assert seg.V_exc == 0.0 and seg.V_inh == 0.0

    def test_pulse_at_origin_collapses_to_two_segments(self):
        prog = pulse(0.0, 100e-6, 0.5, Polarity.INH)
        assert len(prog.segments) == 2
        assert prog.breakpoints == pytest.approx([0.0, 100e-6])

    def test_polarity_routes_to_the_right_drive(self):
        inh = pulse(1e-3, 1e-4, 0.5, Polarity.INH)
        exc = pulse(1e-3, 1e-4, 0.5, Polarity.EXC)
        assert inh.segments[1].V_inh == 0.5 and inh.segments[1].V_exc == 0.0
        assert exc.segments[1].V_exc == 0.5 and exc.segments[1].V_inh == 0.0

    def test_bounds_violations(self):
        with pytest.raises(ConfigError):
            pulse(1e-3, -1e-6, 0.5)
        with pytest.raises(ConfigError):
            pulse(1e-3, 1e-4, 2.0)


class TestStep:
    def test_step_at_origin_is_single_constant_segment(self):
        prog = step(0.5, Polarity.EXC)
        assert prog.is_constant
        assert prog.drives_at(0.0) == (0.5, 0.0)

    def test_polarity_routes_to_the_right_drive(self):
        assert step(0.5, Polarity.INH).drives_at(1.0) == (0.0, 0.5)

    @pytest.mark.parametrize("level", [-0.1, 1.6])
    def test_level_outside_the_supply_rejected(self, level):
        with pytest.raises(ConfigError, match=f"drive voltage {level!r} outside"):
            step(level)


class TestSpikingChirp:
    def test_figure_chirp_pulse_count_and_periods(self):
        prog = spiking_chirp(131.0, 262.0, 13, 10, 100e-6, 0.5, Polarity.INH)
        on = [s for s in prog.segments if s.V_inh > 0.0]
        assert len(on) == 130
        assert prog.freq_blocks is not None
        assert len(prog.freq_blocks) == 13
        assert prog.freq_blocks[0].frequency == pytest.approx(131.0)
        assert prog.freq_blocks[-1].frequency == pytest.approx(262.0)
        assert 1.0 / prog.freq_blocks[-1].frequency == pytest.approx(
            LAST_BLOCK_PERIOD, rel=1e-12
        )

    def test_total_duration_is_sum_of_block_lengths(self):
        prog = spiking_chirp(131.0, 262.0, 13, 10, 100e-6, 0.5, Polarity.INH)
        assert prog.freq_blocks[-1].t_end == pytest.approx(
            CHIRP_TOTAL_DURATION, rel=1e-12
        )

    def test_single_frequency_is_constant_rate_train(self):
        prog = spiking_chirp(100.0, 200.0, 1, 5, 1e-3, 0.5, Polarity.INH)
        on = [s for s in prog.segments if s.V_inh > 0.0]
        assert len(on) == 5
        starts = [s.t_start for s in on]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(g == pytest.approx(1.0 / 100.0, rel=1e-12) for g in gaps)

    def test_pulse_width_must_fit_in_the_fastest_period(self):
        with pytest.raises(ConfigError):
            spiking_chirp(131.0, 262.0, 13, 10, 4e-3, 0.5, Polarity.INH)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_pulse_count_property(self, n_freqs, spikes):
        prog = spiking_chirp(50.0, 300.0, n_freqs, spikes, 1e-4, 0.4, Polarity.INH)
        on = [s for s in prog.segments if s.V_inh > 0.0]
        assert len(on) == n_freqs * spikes
        assert_tiles(prog)

    def test_block_lookup(self):
        prog = spiking_chirp(131.0, 262.0, 13, 10, 100e-6, 0.5, Polarity.INH)
        assert prog.freq_blocks[prog.block_index(0.0)].frequency == pytest.approx(131.0)
        assert prog.block_index(1e9) == 12   # the free-ringing tail joins the last block
        with pytest.raises(ValueError):
            pulse(1e-3, 1e-4, 0.5).block_index(0.0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_block_index_matches_linear_scan(self, n_freqs, spikes, data):
        prog = spiking_chirp(50.0, 300.0, n_freqs, spikes, 1e-4, 0.4, Polarity.INH)
        blocks = prog.freq_blocks
        t = data.draw(st.one_of(
            st.sampled_from([b.t_start for b in blocks] + [blocks[-1].t_end]),
            st.floats(min_value=0.0, max_value=2.0 * blocks[-1].t_end),
        ))
        expected = next((j for j, b in enumerate(blocks) if b.t_start <= t < b.t_end),
                        len(blocks) - 1)
        assert prog.block_index(t) == expected


class TestSynapseCurrent:
    def test_zero_inputs_give_zero_current(self, default_params):
        assert synapse_current(0.0, 0.0, default_params) == 0.0

    def test_clamped_gates_the_synapse_off(self, default_params):
        # the drive stays on through every handshake, but the recorded input
        # current is zero while clamped and the full synapse current otherwise
        p = dataclasses.replace(default_params, V_th=0.840)
        dp = derive_params(p)
        s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.03, sample_stride=10)
        trace, events = integrate(s0, p, step(0.5, Polarity.EXC), cfg)
        assert events
        assert np.all(trace.I_in[trace.clamped] == 0.0)
        assert np.all(trace.I_in[~trace.clamped] == synapse_current(0.5, 0.0, p))

    def test_antisymmetry_with_equal_scales(self, default_params):
        p = dataclasses.replace(default_params, I_s0_exc=1e-15, I_s0_inh=1e-15)
        a = synapse_current(0.4, 0.1, p)
        b = synapse_current(0.1, 0.4, p)
        assert a == pytest.approx(-b, rel=1e-12)

    def test_calibrated_pulse_displaces_at_least_5mV(self, default_params):
        # the standard 0.5 V / 100 us inhibitory pulse must move U visibly
        p = default_params
        I = synapse_current(0.0, 0.5, p)
        assert I < 0.0
        assert abs(I) * 100e-6 / p.C1 >= 5e-3

    def test_excitatory_current_is_positive(self, default_params):
        assert synapse_current(0.5, 0.0, default_params) > 0.0
