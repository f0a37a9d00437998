"""Core dynamics: equilibrium, derivatives, LV transform, linearized solution.

Numerical reference values were computed independently with 30-digit
mpmath arithmetic from the closed-form expressions and are frozen here.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfneuron import (
    CircuitParams,
    ConfigError,
    DerivedParams,
    LinearizedRFState,
    NeuronState,
    derive_params,
    linearized_solution,
    lv_invariant,
    lv_transform,
    rhs,
)

# mpmath oracles (kappa=0.7, U_T=25.85 mV, I_n0=47 fA, I=150 pA, C=1.2 pF)
A_SLOPE = 11.1503015132552053         # 1/V
U_STAR = 0.723589668115880504         # V
OMEGA = 1393.78768915690067           # rad/s
F_RES = 221.828200349950832           # Hz


def params(**kw) -> CircuitParams:
    base = dict(I_n0_beta=None)
    base.update(kw)
    return dataclasses.replace(CircuitParams(), **base)


class TestDeriveParams:
    def test_exponential_slope(self):
        assert params().exp_slope == pytest.approx(A_SLOPE, rel=1e-14)

    def test_calibrated_baseline_hits_724mV(self):
        dp = derive_params(params())
        assert dp.U_star == pytest.approx(U_STAR, rel=1e-13)
        assert abs(dp.U_star - 0.724) < 5e-3

    def test_symmetric_biases_give_equal_baselines(self):
        dp = derive_params(params())
        assert dp.U_star == pytest.approx(dp.V_star, rel=1e-13)

    def test_log_inversion_returns_one_volt(self):
        p = params()
        biased = dataclasses.replace(
            p, I_IV=p.I_n0 * math.exp(p.exp_slope * 1.0),
            I_IU=p.I_n0 * math.exp(p.exp_slope * 1.0),
        )
        dp = derive_params(biased)
        assert dp.U_star == pytest.approx(1.0, rel=1e-12)

    def test_resonant_frequency_oracle(self):
        dp = derive_params(params())
        assert dp.omega == pytest.approx(OMEGA, rel=1e-13)
        assert dp.f_res == pytest.approx(F_RES, rel=1e-13)
        # measured die-to-die mean was 170 Hz; calibration lands within 35%
        assert abs(dp.f_res - 170.0) / 170.0 < 0.35

    def test_decay_factor_and_q(self):
        dp = derive_params(params(g_damp=6.5e-12))
        assert dp.b == pytest.approx(-6.5e-12 / 1.2e-12, rel=1e-14)
        assert dp.Q == pytest.approx(128.657325153, rel=1e-10)

    def test_undamped_q_is_infinite(self):
        dp = derive_params(params(g_damp=0.0))
        assert dp.b == 0.0
        assert math.isinf(dp.Q)

    def test_equilibrium_currents(self):
        dp = derive_params(params(), I_in=20e-12)
        assert dp.I_alpha_star == pytest.approx(150e-12)
        assert dp.I_beta_star == pytest.approx(170e-12)

    def test_domain_error_when_bias_below_process_current(self):
        with pytest.raises(ValueError):
            derive_params(params(I_IV=40e-15))
        with pytest.raises(ValueError):
            derive_params(params(), I_in=-150e-12)

    @pytest.mark.parametrize("fields, I_in", [
        ({"U_T": 0.2585}, 0.0),                     # U* = 7.2 V
        ({"V_DD": 0.9, "I_IV": 3e-8}, 0.0),         # U* = 1.20 V, above 1.1 V
        ({}, 1e-4),                                 # V* = 1.93 V with the input folded in
    ])
    def test_equilibrium_outside_the_guard_window_rejected(self, fields, I_in):
        with pytest.raises(ConfigError, match="guard window"):
            derive_params(params(**fields), I_in=I_in)

    def test_frequency_proportional_to_bias(self):
        p1 = params()
        p2 = params(I_IU=300e-12, I_IV=300e-12)
        assert derive_params(p2).omega == pytest.approx(
            2.0 * derive_params(p1).omega, rel=1e-12
        )


class TestRhs:
    def test_zero_at_equilibrium(self):
        p = params()
        dp = derive_params(p)
        s = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
        dU, dV = rhs(s, p, 0.0)
        # natural derivative scale is I/C ~ 125 V/s
        assert abs(dU) < 1e-8
        assert abs(dV) < 1e-8

    def test_table_point_oracle(self):
        # frozen mpmath evaluation at U=700 mV, V=758 mV, g=6.5 pS, ref=(U*,U*)
        p = params(g_damp=6.5e-12)
        s = NeuronState(t=0.0, U=0.700, V=0.758)
        dU, dV = rhs(s, p, 0.0)
        assert dU == pytest.approx(-58.3327093327008, rel=1e-12)
        assert dV == pytest.approx(-29.0967186049286, rel=1e-12)

    def test_sign_structure_above_equilibrium(self):
        p = params(g_damp=0.0)
        dp = derive_params(p)
        s = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star + 1e-3)
        dU, dV = rhs(s, p, 0.0)
        assert dU < 0.0
        assert dV == pytest.approx(0.0, abs=1e-8)

    def test_guard_saturates_exponential(self):
        p = params()
        inside = rhs(NeuronState(t=0.0, U=p.v_max_guard, V=0.7), p, 0.0)
        beyond = rhs(NeuronState(t=0.0, U=p.v_max_guard + 1.0, V=0.7), p, 0.0)
        assert beyond[1] == pytest.approx(inside[1], rel=1e-12)
        assert all(map(math.isfinite, beyond))


class TestLvTransform:
    def test_zero_voltage_gives_process_current(self):
        p = params()
        s = NeuronState(t=0.0, U=0.0, V=0.0)
        I_alpha, I_beta = lv_transform(s, p)
        assert I_alpha == pytest.approx(p.I_n0, rel=1e-14)
        assert I_beta == pytest.approx(p.I_n0, rel=1e-14)

    def test_equilibrium_voltage_maps_to_bias(self):
        p = params()
        dp = derive_params(p)
        I_alpha, _ = lv_transform(NeuronState(t=0.0, U=dp.U_star, V=0.0), p)
        assert I_alpha == pytest.approx(p.I_IV, rel=1e-12)

    def test_doubling_squares_normalized_current(self):
        p = params()
        x = 0.31
        Ia1, _ = lv_transform(NeuronState(t=0.0, U=x, V=0.0), p)
        Ia2, _ = lv_transform(NeuronState(t=0.0, U=2 * x, V=0.0), p)
        assert Ia2 / p.I_n0 == pytest.approx((Ia1 / p.I_n0) ** 2, rel=1e-12)

    @given(st.floats(min_value=-0.2, max_value=1.5),
           st.floats(min_value=1e-6, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_strictly_monotone(self, u, du):
        p = params()
        lo, _ = lv_transform(NeuronState(t=0.0, U=u, V=0.0), p)
        hi, _ = lv_transform(NeuronState(t=0.0, U=u + du, V=0.0), p)
        assert hi > lo


class TestLvInvariant:
    def test_global_minimum_at_equilibrium(self):
        p = params(g_damp=0.0)
        dp = derive_params(p)
        eq = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
        h0 = lv_invariant(eq, p, 0.0)
        for du in (-0.05, -0.01, 0.01, 0.05):
            for dv in (-0.05, 0.0, 0.05):
                if du == 0.0 and dv == 0.0:
                    continue
                s = NeuronState(t=0.0, U=dp.U_star + du, V=dp.V_star + dv)
                assert lv_invariant(s, p, 0.0) > h0

    def test_input_shifts_the_minimizer(self):
        p = params(g_damp=0.0)
        I_in = 30e-12
        dp = derive_params(p, I_in=I_in)
        eq = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
        h0 = lv_invariant(eq, p, I_in)
        off = NeuronState(t=0.0, U=dp.U_star + 0.01, V=dp.V_star - 0.01)
        assert lv_invariant(off, p, I_in) > h0


class TestLinearizedSolution:
    def test_quarter_period_pure_rotation(self):
        dp = DerivedParams(U_star=0, V_star=0, omega=10.0, b=0.0, Q=math.inf,
                           I_alpha_star=0, I_beta_star=0)
        x = linearized_solution(LinearizedRFState(u=1.0, v=0.0), dp, math.pi / 20.0)
        assert x.u == pytest.approx(0.0, abs=1e-12)
        assert x.v == pytest.approx(1.0, rel=1e-12)

    def test_full_period_decay_per_turn(self):
        b, w = -3.0, 2 * math.pi * 50.0
        dp = DerivedParams(U_star=0, V_star=0, omega=w, b=b, Q=w / (2 * abs(b)),
                           I_alpha_star=0, I_beta_star=0)
        x0 = LinearizedRFState(u=0.4, v=-0.7)
        x = linearized_solution(x0, dp, 2 * math.pi / w)
        decay = math.exp(2 * math.pi * b / w)
        assert x.u == pytest.approx(x0.u * decay, rel=1e-10)
        assert x.v == pytest.approx(x0.v * decay, rel=1e-10)

    def test_amplitude_oracle_for_q129_parameters(self):
        # b = -4.14 1/s at 170 Hz corresponds to Q = 129; amplitude after
        # 0.3 s is exp(-1.242) of the initial value (mpmath: 0.2888060279)
        b, w = -4.14, 2 * math.pi * 170.0
        dp = DerivedParams(U_star=0, V_star=0, omega=w, b=b, Q=w / (2 * abs(b)),
                           I_alpha_star=0, I_beta_star=0)
        assert dp.Q == pytest.approx(129.0, abs=0.1)
        x = linearized_solution(LinearizedRFState(u=1.0, v=0.0), dp, 0.3)
        amp = math.hypot(x.u, x.v)
        assert amp == pytest.approx(0.288806027885956, rel=1e-10)

    def test_constant_input_particular_solution(self):
        b, w = -2.0, 300.0
        dp = DerivedParams(U_star=0, V_star=0, omega=w, b=b, Q=w / (2 * abs(b)),
                           I_alpha_star=0, I_beta_star=0)
        x0 = LinearizedRFState(u=0.0, v=0.0, I=2.5, c=0.8)
        # closed form satisfies the ODE: check du/dt by central difference
        h = 1e-7
        t = 0.0123
        xm = linearized_solution(x0, dp, t - h)
        xp = linearized_solution(x0, dp, t + h)
        xc = linearized_solution(x0, dp, t)
        du_num = (xp.u - xm.u) / (2 * h)
        dv_num = (xp.v - xm.v) / (2 * h)
        assert du_num == pytest.approx(b * xc.u - w * xc.v + x0.c * x0.I, rel=1e-6)
        assert dv_num == pytest.approx(w * xc.u + b * xc.v, rel=1e-6)

    def test_forced_equilibrium_is_fixed_point(self):
        b, w = -5.0, 1000.0
        dp = DerivedParams(U_star=0, V_star=0, omega=w, b=b, Q=w / (2 * abs(b)),
                           I_alpha_star=0, I_beta_star=0)
        drive = 1.7
        u_p = -drive * b / (b * b + w * w)
        v_p = drive * w / (b * b + w * w)
        x = linearized_solution(LinearizedRFState(u=u_p, v=v_p, I=1.0, c=drive), dp, 0.05)
        assert x.u == pytest.approx(u_p, rel=1e-9, abs=1e-15)
        assert x.v == pytest.approx(v_p, rel=1e-9, abs=1e-15)


class TestCircuitParamsValidation:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            params(C1=0.0)

    def test_rejects_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            params(kappa_n=1.0)

    def test_rejects_bad_voltage_ordering(self):
        with pytest.raises(ValueError):
            params(V_reset=0.9)
        with pytest.raises(ValueError):
            params(V_th=1.6)

    def test_rejects_negative_damping(self):
        with pytest.raises(ValueError):
            params(g_damp=-1e-12)

    def test_branch_overrides(self):
        p = params(I_n0_alpha=40e-15, I_n0_beta=20e-15)
        assert p.In0_alpha == 40e-15
        assert p.In0_beta == 20e-15
        q = params()
        assert q.In0_alpha == q.I_n0 == q.In0_beta

    @pytest.mark.parametrize("value, message", [
        (math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
        (np.float64(math.nan), "must be finite"), (np.float32(math.inf), "must be finite"),
        (True, "must be a number, not a boolean"), (np.True_, "must be a number, not a boolean"),
    ], ids=["nan", "inf", "-inf", "np.float64-nan", "np.float32-inf", "bool", "np.bool_"])
    def test_rejects_non_finite_and_boolean_fields(self, value, message):
        # plain floats take a fast path past the number-type checks; it rejects alike
        with pytest.raises(ConfigError, match=f"T_spk {message}"):
            params(T_spk=value)

    @pytest.mark.parametrize("value", [1, np.int64(1), np.float32(1.0), np.float64(1.0), 1.0],
                             ids=["int", "np.int64", "np.float32", "np.float64", "float"])
    def test_numbers_become_plain_floats(self, value):
        p = params(T_spk=value)
        assert type(p.T_spk) is float and p.T_spk == 1.0
