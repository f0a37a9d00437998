"""RK4 stepping, the derivative kernel, event refinement, trace bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest

from rfneuron import (
    CircuitParams,
    ConfigError,
    HandshakeConfig,
    IntegratorConfig,
    NeuronState,
    Phase,
    derive_params,
    integrate,
    pulse,
    rhs,
    step,
)
from rfneuron.integrator import _make_deriv, _rk4_once
from rfneuron.stimuli import Polarity


def equilibrium_state(p: CircuitParams) -> NeuronState:
    dp = derive_params(p)
    return NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)


def zero_program():
    return step(0.0, 0.0, 0.0, Polarity.EXC)


class TestStepRK4:
    def test_zero_rhs_leaves_state_unchanged(self):
        assert _rk4_once(0.7, 0.8, 1e-3, lambda u, v: (0.0, 0.0)) == (0.7, 0.8)

    def test_constant_rhs_is_exact(self):
        u, v = _rk4_once(0.0, 0.0, 0.25, lambda u, v: (2.0, -4.0))
        assert u == pytest.approx(0.5, rel=1e-15)
        assert v == pytest.approx(-1.0, rel=1e-15)

    def test_fourth_order_convergence_on_rotation(self):
        # du/dt = -w v, dv/dt = w u has the exact solution of a rotation
        w = 2 * math.pi * 100.0

        def rot(u, v):
            return (-w * v, w * u)

        def final_error(dt):
            n = int(round((1.0 / 100.0) / dt))
            u, v = 1.0, 0.0
            for _ in range(n):
                u, v = _rk4_once(u, v, dt, rot)
            return math.hypot(u - 1.0, v - 0.0)

        e1 = final_error(1e-5)
        e2 = final_error(5e-6)
        assert 12.0 < e1 / e2 < 20.0


class TestDerivative:
    @pytest.mark.parametrize("U, V", [
        (0.70, 0.80),                 # inside the voltage guard window
        (-0.5, 0.80),                 # U below the guard
        (0.70, 2.0),                  # V above the guard
    ])
    def test_kernel_matches_core_rhs(self, U, V):
        p = CircuitParams()
        I_in = -3e-11
        ref = derive_params(p, I_in=2e-11)
        expected = rhs(NeuronState(t=0.0, U=U, V=V), p, I_in, ref)
        got = _make_deriv(p, ref, I_in)(U, V)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestRefineCrossing:
    def test_refined_time_is_bracketed_and_accurate(self):
        # the first event of a run at the default tolerance must sit within
        # crossing_tol of the same event refined 1000x tighter, and never
        # before it: bisection returns the upper end of its bracket
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)

        def first_t_req(tol):
            cfg = IntegratorConfig(dt=1e-6, t_end=0.05, crossing_tol=tol, sample_stride=50)
            _, events = integrate(equilibrium_state(p), p, prog, cfg, max_events=1)
            return events[0].t_req

        coarse, fine = first_t_req(1e-9), first_t_req(1e-12)
        assert -1e-12 <= coarse - fine <= 1e-9


class TestIntegrate:
    def test_equilibrium_stays_flat_with_zero_stimulus(self):
        p = CircuitParams()
        cfg = IntegratorConfig(dt=1e-6, t_end=0.02, sample_stride=50)
        trace, events = integrate(equilibrium_state(p), p, zero_program(), cfg)
        assert events == []
        dp = derive_params(p)
        assert np.max(np.abs(trace.U - dp.U_star)) < 1e-9
        assert np.max(np.abs(trace.V - dp.V_star)) < 1e-9

    def test_uniform_sampling_grid(self):
        p = CircuitParams()
        cfg = IntegratorConfig(dt=1e-6, t_end=0.01, sample_stride=40)
        trace, _ = integrate(equilibrium_state(p), p, zero_program(), cfg)
        gaps = np.diff(trace.t)[:-1]  # the final point lands on t_end
        assert np.allclose(gaps, 40e-6, rtol=0, atol=1e-12)

    def test_inhibitory_pulse_rings_below_threshold(self):
        p = CircuitParams()  # V_th = 850 mV
        prog = pulse(1e-3, 100e-6, 0.5, Polarity.INH)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.08, sample_stride=20)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg)
        assert events == []
        dp = derive_params(p)
        after = trace.t > 1.1e-3
        assert trace.V[after].max() > dp.V_star + 5e-3   # visible rebound
        assert trace.V.max() < p.V_th                     # strictly subthreshold
        assert trace.U.min() < dp.U_star - 5e-3           # pulse pulled U down

    def test_step_input_produces_rhythmic_firing(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=50)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg)
        assert len(events) >= 2
        isis = np.diff([e.t_req for e in events[1:]])
        if len(isis) >= 2:
            assert np.std(isis) / np.mean(isis) < 0.05

    def test_clamp_exactness_and_extra_samples(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.03, sample_stride=10)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg)
        assert len(events) >= 1
        for e in events:
            inside = (trace.t >= e.t_req) & (trace.t < e.t_release)
            assert np.all(trace.clamped[inside])
            assert np.all(trace.U[inside] == p.V_reset)  # bit-exact clamp
            assert np.all(trace.V[inside] == p.V_th)
            assert np.all(trace.I_in[inside] == 0.0)     # synapse gated off
            # extra samples at both boundaries of the handshake
            assert e.t_req in trace.t
            if e.t_release < cfg.t_end:
                assert e.t_release in trace.t

    def test_no_event_inside_clamp_and_events_disjoint(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=50)
        _, events = integrate(equilibrium_state(p), p, prog, cfg)
        for a, b in zip(events, events[1:]):
            assert b.t_req >= a.t_release

    def test_event_completeness_on_sampled_trace(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=50)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg)
        req_times = np.asarray([e.t_req for e in events])
        osc = ~trace.clamped
        for i in range(len(trace) - 1):
            if not (osc[i] and osc[i + 1]):
                continue
            if trace.V[i] < p.V_th <= trace.V[i + 1]:
                n = np.count_nonzero(
                    (req_times > trace.t[i]) & (req_times <= trace.t[i + 1])
                )
                assert n == 1

    def test_max_events_stops_early(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.5, sample_stride=50)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg, max_events=3)
        assert len(events) == 3
        assert trace.t[-1] == pytest.approx(events[-1].t_req)

    def test_hold_past_horizon_ends_in_one_clamped_sample(self):
        # a release after t_end is never reached: the trace ends clamped at t_end
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        cfg = IntegratorConfig(t_end=0.03)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg, HandshakeConfig(T_spk=1.0))
        assert len(events) == 1 and events[0].t_release > cfg.t_end
        assert trace.t[-1] == cfg.t_end
        assert np.count_nonzero(trace.t == cfg.t_end) == 1
        held = trace.t >= events[0].t_req
        assert np.count_nonzero(held) > 2
        assert np.all(trace.clamped[held])               # no release sample
        assert np.all(trace.U[held] == p.V_reset)
        assert np.all(trace.I_in[held] == 0.0)

    @pytest.mark.parametrize("offset", [1e-15, -1e-15])
    def test_edges_within_snap_of_the_grid_act_on_the_grid(self, offset):
        # pulse edges closer than dt * 1e-9 to a grid point add no stop
        p = CircuitParams()
        cfg = IntegratorConfig(t_end=0.02)
        on_grid = pulse(1e-3, 100e-6, 0.5, Polarity.INH)
        near = pulse(1e-3 + offset, 100e-6, 0.5, Polarity.INH)
        assert near.breakpoints != on_grid.breakpoints
        t1, e1 = integrate(equilibrium_state(p), p, on_grid, cfg)
        t2, e2 = integrate(equilibrium_state(p), p, near, cfg)
        assert e1 == e2
        for name in ("t", "U", "V", "I_in", "clamped", "overflow"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_determinism_bit_identical(self):
        p = CircuitParams()
        prog = pulse(1e-3, 100e-6, 0.5, Polarity.INH)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.03, sample_stride=20)
        t1, _ = integrate(equilibrium_state(p), p, prog, cfg)
        t2, _ = integrate(equilibrium_state(p), p, prog, cfg)
        assert np.array_equal(t1.U, t2.U)
        assert np.array_equal(t1.V, t2.V)
        assert np.array_equal(t1.t, t2.t)

    def test_coarse_dt_rejected(self):
        p = CircuitParams()
        cfg = IntegratorConfig(dt=1e-4, t_end=0.01)
        with pytest.raises(ConfigError):
            integrate(equilibrium_state(p), p, zero_program(), cfg)

    def test_scripted_ack_exhaustion_propagates(self):
        from rfneuron import AckMode, ProtocolError
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=50)
        protocol = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=60e-6,
                                   ack_delays=(0.0,))
        with pytest.raises(ProtocolError):
            integrate(equilibrium_state(p), p, prog, cfg, protocol)

    def test_clamped_start_rejected(self):
        p = CircuitParams()
        s0 = dataclasses.replace(equilibrium_state(p), phase=Phase.CLAMPED)
        with pytest.raises(ValueError, match="free-running"):
            integrate(s0, p, zero_program(), IntegratorConfig(t_end=5e-3))

    @pytest.mark.parametrize("t0", [-1e-3, 5e-3, 0.01])
    def test_start_outside_horizon_rejected(self, t0):
        p = CircuitParams()
        s0 = dataclasses.replace(equilibrium_state(p), t=t0)
        with pytest.raises(ValueError, match="start time"):
            integrate(s0, p, zero_program(), IntegratorConfig(t_end=5e-3))

    @pytest.mark.parametrize("max_events", [0, -1])
    def test_max_events_below_one_rejected(self, max_events):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.0, 0.0, 0.5, Polarity.EXC)
        with pytest.raises(ValueError, match="max_events"):
            integrate(equilibrium_state(p), p, prog, IntegratorConfig(t_end=0.05),
                      max_events=max_events)

    def test_trace_csv_round_trip(self, tmp_path):
        p = CircuitParams()
        cfg = IntegratorConfig(dt=1e-6, t_end=0.005, sample_stride=50)
        trace, _ = integrate(equilibrium_state(p), p, zero_program(), cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t_s,U_V,V_V,I_in_A,clamped,overflow"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert data.shape[0] == len(trace)


class TestOrderOfAccuracy:
    def test_nonlinear_undamped_halving_ratio(self):
        # full nonlinear oscillator, g_damp = 0: the final-state error must
        # shrink ~16x per dt halving (acceptance criterion 5 checks the
        # invariant drift on the same orbit)
        p = dataclasses.replace(CircuitParams(), g_damp=0.0, I_n0_beta=None)
        dp = derive_params(p)
        period = 1.0 / dp.f_res
        s0 = NeuronState(t=0.0, U=dp.U_star - 0.08, V=dp.V_star)

        def final_state(dt):
            cfg = IntegratorConfig(dt=dt, t_end=period, sample_stride=10**9)
            tr, _ = integrate(s0, p, zero_program(), cfg)
            return tr.U[-1], tr.V[-1]

        # coarse enough that truncation error sits far above the FP floor
        ref = final_state(period / 12800)
        e1 = final_state(period / 400)
        e2 = final_state(period / 800)
        err1 = math.hypot(e1[0] - ref[0], e1[1] - ref[1])
        err2 = math.hypot(e2[0] - ref[0], e2[1] - ref[1])
        assert 12.0 < err1 / err2 < 20.0
