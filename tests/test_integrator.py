"""RK4 stepping, the C kernel and its loader, event refinement, trace bookkeeping."""

import ctypes
import dataclasses
import math
import re
import shutil
import subprocess
import tempfile
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfneuron import (
    AckMode,
    CircuitParams,
    ConfigError,
    HandshakeConfig,
    IntegratorConfig,
    NeuronState,
    ProtocolError,
    StimulusProgram,
    Trace,
    derive_params,
    integrate,
    pulse,
    rhs,
    step,
    synapse_current,
)
from rfneuron.cli import main
from rfneuron.config import load_config
from rfneuron import integrator
from rfneuron.experiments import (
    SWEEP_STEPS_PER_PERIOD, ChirpSetup, SweepSetup, ringdown_metrics, run_ringdown,
)
from rfneuron.handshake import HandshakeFSM
from rfneuron.integrator import (
    _GRID_SNAP, _KERNEL_SOURCE, _KS, _TUV, _lib, _load_kernel, _span_params,
)
from rfneuron.stimuli import Polarity, Segment


def equilibrium_state(p: CircuitParams) -> NeuronState:
    dp = derive_params(p)
    return NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)


def zero_program():
    return step(0.0, Polarity.EXC)


def kernel_step(p, ref, I_in, lib=_lib):
    """One RK4 step of ``lib``'s span runner as ``step(u, v, h) -> (u, v)``.

    The step is a whole ``rf_run`` call: one open-ended segment, no extra
    stop, one stop (``last = 1``, ``dt = t_end = h``) and a threshold that no
    step crosses.
    """
    prm = (ctypes.c_double * 12)(*_span_params(p, ref, I_in))
    inf = (ctypes.c_double * 1)(math.inf)  # the segment's end and the extra stops' sentinel
    i_in, rows = (ctypes.c_double * 1)(I_in), (ctypes.c_double * 8)()  # start and t_end rows
    clamped = (ctypes.c_ubyte * 2)()

    def step_fn(u, v, h):
        tuv, ks = _TUV(0.0, u, v, 0.0), _KS(1, 0, 0, 0)
        lib.rf_run(prm, inf, i_in, inf, tuv, ks, 1, 1, h, h, _GRID_SNAP, 0.0, math.inf, h,
                   rows, clamped, 2)
        return tuv[1], tuv[2]

    return step_fn


def rk4_from_rhs(p, ref, I_in, U, V, h):
    """One classical RK4 step built from ``core.rhs``, and the four stage states."""
    stages = []

    def f(u, v):
        stages.append((u, v))
        return rhs(NeuronState(t=0.0, U=u, V=v), p, I_in, ref)

    half = 0.5 * h
    du1, dv1 = f(U, V)
    du2, dv2 = f(U + half * du1, V + half * dv1)
    du3, dv3 = f(U + half * du2, V + half * dv2)
    du4, dv4 = f(U + h * du3, V + h * dv3)
    return (
        (U + h * (du1 + 2.0 * (du2 + du3) + du4) / 6.0,
         V + h * (dv1 + 2.0 * (dv2 + dv3) + dv4) / 6.0),
        stages,
    )


def saturated(p: CircuitParams, balanced: bool) -> CircuitParams:
    """Undamped ``p``: above the guard window its derivative is constant.

    Both exponentials saturate at ``v_max_guard`` there and the leak is off,
    so every RK4 stage sees the same derivative.  ``balanced`` sets each bias
    to its saturated branch current, which makes that derivative zero.
    """
    p = dataclasses.replace(p, g_damp=0.0)
    if balanced:
        top = math.exp(p.exp_slope * p.v_max_guard)
        p = dataclasses.replace(p, I_IU=p.In0_beta * top, I_IV=p.In0_alpha * top)
    return p


class TestStepRK4:
    # above the 1.7 V guard; a 10 ns step keeps every stage there
    ABOVE, H = 2.0, 1e-8

    def test_zero_rhs_leaves_state_unchanged(self):
        p = saturated(CircuitParams(), balanced=True)
        # undamped, so the reference is immaterial; p's own equilibrium sits
        # on the window's edge, where derive_params may round it outside
        step_fn = kernel_step(p, derive_params(CircuitParams()), 0.0)
        assert step_fn(self.ABOVE, self.ABOVE, self.H) == (self.ABOVE, self.ABOVE)

    def test_constant_rhs_is_exact(self):
        p = saturated(CircuitParams(), balanced=False)
        ref = derive_params(p)
        du, dv = rhs(NeuronState(t=0.0, U=self.ABOVE, V=self.ABOVE), p, 0.0, ref)
        u, v = kernel_step(p, ref, 0.0)(self.ABOVE, self.ABOVE, self.H)
        assert u - self.ABOVE == pytest.approx(self.H * du, rel=1e-12)
        assert v - self.ABOVE == pytest.approx(self.H * dv, rel=1e-12)
        assert min(u, v) > p.v_max_guard  # the derivative really stayed constant

    def test_fourth_order_convergence_over_one_period(self):
        # the undamped circuit over one period of an 80 mV orbit: the final
        # error must shrink ~16x per halving of the step
        p = dataclasses.replace(CircuitParams(), g_damp=0.0, I_n0_beta=None)
        dp = derive_params(p)
        period = 1.0 / dp.f_res
        step_fn = kernel_step(p, dp, 0.0)

        def final_state(n):
            u, v, h = dp.U_star - 0.08, dp.V_star, period / n
            for _ in range(n):
                u, v = step_fn(u, v, h)
            return u, v

        ref = final_state(12800)
        e1, e2 = final_state(400), final_state(800)
        err1 = math.hypot(e1[0] - ref[0], e1[1] - ref[1])
        err2 = math.hypot(e2[0] - ref[0], e2[1] - ref[1])
        assert 12.0 < err1 / err2 < 20.0


# starts inside the guard window; the second stage leaves it
LATER_STAGE_EXIT = (1.0, 1.695)

# the input current of a 0.5 V inhibitory pulse, at the default operating
# point: every later stage moves a*U by more than 2^-8, past the kernel's
# polynomial for exp
PULSE_DRIVE = (0.7235896681158807, 0.7980022492088082, -6.07e-10, 1e-5)

# (U, V, I_in, h): V starts 0.1 mV from the guard window's top, and the second
# stage crosses it by less than 2^-8 / a in a*V, so only the window test keeps
# that stage's exponential off the polynomial, which would not saturate
EDGE_STAGE_EXIT = (1.0, 1.6999, 0.0, 1.5e-7)
EDGE_STAGE_ENTRY = (0.3, 1.7001, 0.0, 3.1e-6)


class TestDerivative:
    I_IN, H = -3e-11, 1e-5

    @pytest.mark.parametrize("U, V", [
        (0.70, 0.80),                 # inside the voltage guard window
        (-0.5, 0.80),                 # U below the guard
        (0.70, 2.0),                  # V above the guard
        LATER_STAGE_EXIT,
    ])
    def test_kernel_matches_core_rhs(self, U, V):
        p = CircuitParams()
        ref = derive_params(p, I_in=2e-11)
        expected, _ = rk4_from_rhs(p, ref, self.I_IN, U, V, self.H)
        got = kernel_step(p, ref, self.I_IN)(U, V, self.H)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_later_stage_exit_starts_inside_and_leaves(self):
        p = CircuitParams()
        _, stages = rk4_from_rhs(p, derive_params(p, I_in=2e-11), self.I_IN,
                                 *LATER_STAGE_EXIT, self.H)

        def inside(x):
            return p.v_min_guard <= x <= p.v_max_guard

        assert all(map(inside, stages[0]))
        assert not all(inside(x) for stage in stages[1:] for x in stage)

    # U and V over the orbits of the library's runs (ringdowns, chirps, firing
    # F-I levels) and steps up to 20 us.  A later stage takes its exponential
    # from the start state's through a polynomial, or from exp() when the
    # stage moves a*x by more than 2^-8, as in the pulse example.
    @settings(max_examples=300, deadline=None)
    @example(*PULSE_DRIVE)
    @given(U=st.floats(0.6, 0.9), V=st.floats(0.6, 0.9), I_in=st.floats(-1e-10, 1e-10),
           h=st.floats(1e-9, 2e-5))
    def test_kernel_step_matches_rk4_from_rhs(self, U, V, I_in, h):
        p = CircuitParams()
        ref = derive_params(p)
        expected, _ = rk4_from_rhs(p, ref, I_in, U, V, h)
        got = kernel_step(p, ref, I_in)(U, V, h)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    # the bias sweep's points: both biases over SweepSetup's range, U and V
    # within 0.1 V of that bias's equilibrium, and steps up to twice the sweep's
    @settings(max_examples=300, deadline=None)
    @given(log_bias=st.floats(math.log(SweepSetup().I_min), math.log(SweepSetup().I_max)),
           dU=st.floats(-0.1, 0.1), dV=st.floats(-0.1, 0.1), steps=st.floats(1e-3, 2.0))
    def test_kernel_step_matches_rk4_from_rhs_over_the_bias_sweep(self, log_bias, dU, dV, steps):
        bias = math.exp(log_bias)
        p = dataclasses.replace(CircuitParams(), I_IU=bias, I_IV=bias)
        ref = derive_params(p)
        U, V, h = ref.U_star + dU, ref.V_star + dV, steps / (SWEEP_STEPS_PER_PERIOD * ref.f_res)
        expected, _ = rk4_from_rhs(p, ref, 0.0, U, V, h)
        got = kernel_step(p, ref, 0.0)(U, V, h)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    # a die as montecarlo.sample_die draws it: C1 and C2 apart (within 15%), the
    # two branch currents log-normally and the two biases relatively apart, so a
    # stage scale or bias swapped between the channels moves the step; U and V
    # within 0.1 V of the die's equilibrium and steps up to 20 us
    @settings(max_examples=300, deadline=None)
    @given(fC1=st.floats(0.85, 1.15), fC2=st.floats(0.85, 1.15),
           ln_fa=st.floats(-0.45, 0.45), ln_fb=st.floats(-0.45, 0.45),
           fIU=st.floats(0.5, 1.5), fIV=st.floats(0.5, 1.5),
           dU=st.floats(-0.1, 0.1), dV=st.floats(-0.1, 0.1), I_in=st.floats(-1e-10, 1e-10),
           h=st.floats(1e-9, 2e-5))
    def test_kernel_step_matches_rk4_from_rhs_on_unequal_channels(
            self, fC1, fC2, ln_fa, ln_fb, fIU, fIV, dU, dV, I_in, h):
        base = CircuitParams()
        p = dataclasses.replace(
            base, C1=base.C1 * fC1, C2=base.C2 * fC2,
            I_n0_alpha=base.In0_alpha * math.exp(ln_fa), I_n0_beta=base.In0_beta * math.exp(ln_fb),
            I_IU=base.I_IU * fIU, I_IV=base.I_IV * fIV,
        )
        ref = derive_params(p)
        U, V = ref.U_star + dU, ref.V_star + dV
        expected, _ = rk4_from_rhs(p, ref, I_in, U, V, h)
        got = kernel_step(p, ref, I_in)(U, V, h)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_pulse_drive_stages_are_past_the_polynomial(self):
        p = CircuitParams()
        U, V, I_in, h = PULSE_DRIVE
        _, stages = rk4_from_rhs(p, derive_params(p), I_in, U, V, h)
        assert all(p.exp_slope * abs(u - U) > 2.0 ** -8 for u, _ in stages[1:])

    @pytest.mark.parametrize("U, V, I_in, h", [EDGE_STAGE_EXIT, EDGE_STAGE_ENTRY],
                             ids=["exit", "entry"])
    def test_stage_across_the_window_edge(self, U, V, I_in, h):
        p = CircuitParams()
        ref = derive_params(p)
        expected, stages = rk4_from_rhs(p, ref, I_in, U, V, h)
        v2 = stages[1][1]
        assert (V < p.v_max_guard) != (v2 < p.v_max_guard)
        assert p.exp_slope * abs(v2 - V) <= 2.0 ** -8
        assert kernel_step(p, ref, I_in)(U, V, h) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestBranch:
    """A later stage's scaled branch current, through a test-only export of ``branch()``.

    The export takes ``sB``, a branch's bias times a stage's scale, and the
    start exponential ``e0``, and evaluates ``branch()`` with ``fold(sB, e0)``:
    K P(d) with K = sB e0 folded into P's coefficients.
    """

    @pytest.fixture(scope="class")
    def branch(self, tmp_path_factory):
        source = tmp_path_factory.mktemp("probe") / "branch_probe.c"
        source.write_text(_KERNEL_SOURCE.read_text() + """
double rf_probe_branch(const double *p, double sB, double e0, double x0, double dx, double d)
{
    const struct fold f = fold(sB, e0);
    return branch(p, &f, x0, dx, d);
}
""")
        fn = _load_kernel(source).rf_probe_branch
        fn.argtypes = (ctypes.POINTER(ctypes.c_double), *[ctypes.c_double] * 5)
        fn.restype = ctypes.c_double
        p = CircuitParams()
        prm = (ctypes.c_double * 12)(*_span_params(p, derive_params(p), 0.0))
        return lambda sB, e0, x0, dx, d: fn(prm, sB, e0, x0, dx, d)

    @staticmethod
    def exp_series(d):
        """exp(d) summed exactly, far past 1e-30."""
        term, exact = Fraction(1), Fraction(0)
        for n in range(1, 16):
            exact += term
            term *= Fraction(d) / n
        return exact

    # K = sB e0 = 1 and dx = 0 at a start inside the window leave P(d) alone;
    # a wrong coefficient or grouping moves it by ~d^5/120 ~ 30 ulps at the edge
    @settings(max_examples=300, deadline=None)
    @example(d=2.0 ** -8)
    @example(d=-(2.0 ** -8))
    @given(d=st.floats(-(2.0 ** -8), 2.0 ** -8))
    def test_polynomial_is_within_2_ulps_of_exp(self, branch, d):
        exact = self.exp_series(d)
        got = branch(1.0, 1.0, 0.75, 0.0, d)
        assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    # the kernel's stage scales on a neuron with C1 != C2: a c h / C for the
    # arguments of stages 2 and 3 (c = 1/2) and 4 (c = 1), and h / 6C for the
    # update, each times the bias of the branch that enters that channel's
    # balance (V's for U, U's for V); a folded coefficient that is not K
    # times P's moves K P(d) by far more than 2 ulps of K exp(d)
    SCALED = dataclasses.replace(CircuitParams(), C1=1.1e-12, C2=1.35e-12)

    @pytest.mark.parametrize("channel", ["U", "V"])
    @pytest.mark.parametrize("scale", ["c=1/2", "c=1", "update"])
    @settings(max_examples=100, deadline=None)
    @example(x0=0.75, d=2.0 ** -8)
    @example(x0=0.75, d=-(2.0 ** -8))
    @given(x0=st.floats(0.6, 0.9), d=st.floats(-(2.0 ** -8), 2.0 ** -8))
    def test_folded_polynomial_is_within_2_ulps_of_k_exp(self, branch, channel, scale, x0, d):
        p, h = self.SCALED, 1e-5
        a = p.exp_slope
        hc, bias = (h / p.C1, p.In0_beta) if channel == "U" else (h / p.C2, p.In0_alpha)
        s = {"c=1/2": a * (0.5 * hc), "c=1": a * hc, "update": hc * (1.0 / 6.0)}[scale]
        e0 = math.exp(a * x0)
        K = (s * bias) * e0
        exact = Fraction(K) * self.exp_series(d)
        got = branch(s * bias, e0, x0, 0.0, d)
        assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    # (x0, dx): the stage moves a*x by more than 2^-8, leaves the window at its
    # top or bottom, or starts outside it; each takes sB exp(a guard(x0 + dx))
    PAST = pytest.mark.parametrize("x0, dx", [
        (0.75, 1.5 * 2.0 ** -8 / CircuitParams().exp_slope),
        (0.75, -1.5 * 2.0 ** -8 / CircuitParams().exp_slope),
        (1.6999, 2e-4),
        (-0.1999, -2e-4),
        (1.7001, -2e-4),
        (-0.5, 0.0),
    ])

    @staticmethod
    def past_the_polynomial(branch, x0, dx, s):
        p = CircuitParams()
        a, sB = p.exp_slope, s * p.In0_alpha
        x = min(max(x0 + dx, p.v_min_guard), p.v_max_guard)
        e0 = math.exp(a * min(max(x0, p.v_min_guard), p.v_max_guard))
        return branch(sB, e0, x0, dx, a * dx), sB * math.exp(a * x)

    @PAST
    def test_stage_past_the_polynomial_calls_exp(self, branch, x0, dx):
        got, expected = self.past_the_polynomial(branch, x0, dx, 1.0)
        assert got == expected

    @PAST
    def test_scaled_stage_past_the_polynomial_calls_exp(self, branch, x0, dx):
        # V's stage-4 scale a h / C2 at h = 10 us on SCALED
        got, expected = self.past_the_polynomial(
            branch, x0, dx, CircuitParams().exp_slope * (1e-5 / self.SCALED.C2))
        assert got == expected


class TestKernelLoader:
    @pytest.fixture
    def source(self, tmp_path, monkeypatch):
        """A copy of the kernel source in an empty package directory, and an empty temp dir."""
        temp = tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        (tmp_path / "pkg").mkdir()
        return Path(shutil.copy(_KERNEL_SOURCE, tmp_path / "pkg"))

    def test_missing_gcc_is_one_import_error(self, source, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
        with pytest.raises(ImportError, match="gcc") as info:
            _load_kernel(source)
        assert info.value.__cause__ is None and info.value.__suppress_context__
        assert not list(tmp_path.rglob("*.so")) and not list(tmp_path.rglob("*.tmp"))

    def test_build_lands_in_the_package_cache_and_leaves_no_temporary_file(self, source,
                                                                           tmp_path):
        lib = _load_kernel(source)
        builds = list(tmp_path.rglob("*.so"))
        assert [b.parent for b in builds] == [source.parent / "__pycache__"]
        assert lib._name == str(builds[0])
        assert not list(tmp_path.rglob("*.tmp"))

    def test_read_only_package_directory_falls_back_to_the_temp_dir(self, source, tmp_path):
        # a file in the cache directory's place, since root ignores mode bits
        (source.parent / "__pycache__").write_text("")
        source.parent.chmod(0o555)
        try:
            lib = _load_kernel(source)
        finally:
            source.parent.chmod(0o755)
        builds = list(tmp_path.rglob("*.so"))
        assert [b.parent.parent for b in builds] == [tmp_path / "tmp"]
        assert lib._name == str(builds[0])
        assert not list(tmp_path.rglob("*.tmp"))

    def test_kernel_runs_without_the_gil(self):
        # ctypes releases the GIL around a CDLL call; a PyDLL (a CDLL subclass)
        # holds it, and the sweep lanes' kernel calls would run one at a time
        assert type(_lib) is ctypes.CDLL
        assert not _lib.rf_run._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    def test_warm_cache_starts_no_compiler(self, source, monkeypatch):
        first = _load_kernel(source)

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"compiler started: {args}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert _load_kernel(source)._name == first._name

    # orbit states, a later stage leaving the window, a stage across its top
    # either way, and a drive whose later stages are all past the polynomial
    @pytest.mark.parametrize("U, V, I_in, h", [
        (0.70, 0.80, -3e-11, 1e-5),
        (0.65, 0.85, 0.0, 2e-5),
        (0.80, 0.72, 5e-11, 3e-6),
        (*LATER_STAGE_EXIT, -3e-11, 1e-5),
        EDGE_STAGE_EXIT,
        EDGE_STAGE_ENTRY,
        PULSE_DRIVE,
    ])
    def test_fresh_build_steps_bit_identically(self, source, U, V, I_in, h):
        fresh = _load_kernel(source)
        assert fresh._name != _lib._name
        p = CircuitParams()
        ref = derive_params(p)
        cached = kernel_step(p, ref, I_in)(U, V, h)
        built = kernel_step(p, ref, I_in, fresh)(U, V, h)
        assert [x.hex() for x in built] == [x.hex() for x in cached]

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not on PATH")
    def test_source_compiles_as_strict_c99_without_warnings(self):
        cmd = ["gcc", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror", "-pedantic",
               "-std=c99", "-fsyntax-only", str(_KERNEL_SOURCE)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_every_kernel_function_but_the_span_runner_is_static(self):
        # one hot kernel: rf_run is the library's only export
        heads = re.findall(r"^([A-Za-z_][^;{=]*?)\b(\w+)\(", _KERNEL_SOURCE.read_text(), re.M)
        words = {name: head.split() for head, name in heads}
        assert "static" not in words.pop("rf_run")
        assert words and all("static" in w for w in words.values()), words


class TestRefineCrossing:
    def test_refined_time_is_bracketed_and_accurate(self):
        # the first event of a run at the default tolerance must sit within
        # crossing_tol of the same event refined 1000x tighter, and never
        # before it: bisection returns the upper end of its bracket
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.5, Polarity.EXC)

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
        prog = step(0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=50)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg)
        assert len(events) >= 2
        isis = np.diff([e.t_req for e in events[1:]])
        if len(isis) >= 2:
            assert np.std(isis) / np.mean(isis) < 0.05

    def test_default_handshake_holds_as_long_as_no_handshake_config(self):
        # HandshakeConfig() and protocol=None (the neuron's T_spk) are one default hold
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        args = (equilibrium_state(p), p, step(0.5, Polarity.EXC),
                IntegratorConfig(t_end=0.02))
        default = outcome(integrate, args)
        assert default == outcome(lambda *a: integrate(*a, HandshakeConfig()), args)
        assert HandshakeConfig().T_spk == p.T_spk and default[1].count("SpikeEvent") >= 3

    def test_clamp_exactness_and_extra_samples(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.5, Polarity.EXC)
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
        prog = step(0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=50)
        _, events = integrate(equilibrium_state(p), p, prog, cfg)
        for a, b in zip(events, events[1:]):
            assert b.t_req >= a.t_release

    def test_event_completeness_on_sampled_trace(self):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.5, Polarity.EXC)
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
        prog = step(0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.5, sample_stride=50)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg, max_events=3)
        assert len(events) == 3
        assert trace.t[-1] == pytest.approx(events[-1].t_req)

    def test_hold_past_horizon_ends_in_one_clamped_sample(self):
        # a release after t_end is never reached: the trace ends clamped at t_end
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.5, Polarity.EXC)
        cfg = IntegratorConfig(t_end=0.03)
        run = (equilibrium_state(p), p, prog, cfg, HandshakeConfig(T_spk=1.0), None)
        trace, events = integrate(*run)
        assert outcome(integrate, run) == outcome(reference_integrate, run)
        assert len(events) == 1 and events[0].t_release > cfg.t_end
        assert trace.t[-1] == cfg.t_end
        assert np.count_nonzero(trace.t == cfg.t_end) == 1
        held = trace.t >= events[0].t_req
        assert np.count_nonzero(held) > 2
        assert np.all(trace.clamped[held])               # no release sample
        assert np.all(trace.U[held] == p.V_reset)
        assert np.all(trace.I_in[held] == 0.0)

    def test_crossing_in_the_final_step_ends_the_trace(self):
        # a horizon at the first crossing: no grid stop is left after it, so the
        # clamped crossing row is the last, with no hold and no t_end row
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        s0, prog = equilibrium_state(p), step(0.5, Polarity.EXC)
        cfg = IntegratorConfig(t_end=0.01, crossing_tol=1e-15)
        t_c = integrate(s0, p, prog, cfg, max_events=1)[1][0].t_req
        run = (s0, p, prog, dataclasses.replace(cfg, t_end=t_c), None, None)
        trace, events = integrate(*run)
        assert outcome(integrate, run) == outcome(reference_integrate, run)
        assert len(events) == 1 and events[0].t_req == trace.t[-1] <= t_c
        assert trace.clamped.tolist() == [False] * (len(trace) - 1) + [True]
        assert trace.t[-2] < t_c * (1.0 - _GRID_SNAP)

    def test_hold_shorter_than_a_step_restarts_before_the_crossing_step_ends(self):
        # a breakpoint in every grid interval: a crossing bisected in the step to one
        # is released before it, so the restart must find that breakpoint again
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        dt = IntegratorConfig().dt
        bounds = [0.0, *[(k + 0.9) * dt for k in range(600)], math.inf]
        prog = StimulusProgram([Segment(a, b, 0.5, 0.0) for a, b in zip(bounds, bounds[1:])])
        run = (equilibrium_state(p), p, prog, IntegratorConfig(t_end=5e-3, sample_stride=1),
               HandshakeConfig(T_spk=1e-7), None)
        events = integrate(*run)[1]
        assert len(events) == 2
        assert all(math.floor(e.t_req / dt + 0.1) == math.floor(e.t_release / dt + 0.1)
                   for e in events)  # each release lies before the breakpoint after it
        assert outcome(integrate, run) == outcome(reference_integrate, run)

    @pytest.mark.parametrize("T_spk", [1e-300, math.ulp(0.03)])
    def test_hold_below_the_time_resolution_rejected(self, T_spk):
        # a release on its crossing's own time would repeat a trace timestamp
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        with pytest.raises(ConfigError, match="below the time resolution"):
            integrate(equilibrium_state(p), p, step(0.5, Polarity.EXC),
                      IntegratorConfig(t_end=0.03), HandshakeConfig(T_spk=T_spk))

    def test_event_rows_outgrow_the_grid_sized_buffer(self):
        # with no grid sample but the start and t_end, every crossing and
        # release row lands beyond the initial buffer and must survive its growth
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=10**9)
        trace, events = integrate(equilibrium_state(p), p, prog, cfg)
        assert len(events) > 5 and events[-1].t_release < cfg.t_end
        edges = [t for e in events for t in (e.t_req, e.t_release)]
        assert trace.t.tolist() == [0.0, *edges, cfg.t_end]
        assert trace.clamped.tolist() == [False, *[True, False] * len(events), False]
        assert np.all(trace.U[trace.clamped] == p.V_reset)
        assert np.all(trace.I_in[~trace.clamped] > 0.0)

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

    @pytest.mark.parametrize("U, V", [(-0.5, None), (None, 1.9)])
    def test_start_outside_the_guard_window(self, U, V):
        p = CircuitParams()
        dp = derive_params(p)
        s0 = NeuronState(t=0.0, U=dp.U_star if U is None else U, V=dp.V_star if V is None else V)
        with pytest.raises(ValueError, match="guard window"):
            integrate(s0, p, zero_program(), IntegratorConfig(t_end=0.06))

    @pytest.mark.parametrize("U, V", [LATER_STAGE_EXIT, (0.3, -0.19)])  # U, then V leaves
    def test_overflow_flags_the_samples_outside_the_guard_window(self, U, V):
        # a start inside the window that leaves it mid-run: the exponentials
        # saturate instead of overflowing, and every sample outside
        # [v_min_guard, v_max_guard] and only those carry the flag
        p = CircuitParams()
        s0 = NeuronState(t=0.0, U=U, V=V)
        trace, _ = integrate(s0, p, zero_program(), IntegratorConfig(t_end=0.06))
        assert np.all(np.isfinite(trace.U)) and np.all(np.isfinite(trace.V))
        lo, hi = p.v_min_guard, p.v_max_guard
        outside = ~((lo <= trace.U) & (trace.U <= hi) & (lo <= trace.V) & (trace.V <= hi))
        assert not outside[0] and outside[1:].any()
        assert np.array_equal(trace.overflow, outside)
        assert "overflow" in ringdown_metrics(trace, 0.0, 0.01).flags

    def test_coarse_dt_rejected(self):
        p = CircuitParams()
        cfg = IntegratorConfig(dt=1e-4, t_end=0.01)
        with pytest.raises(ConfigError):
            integrate(equilibrium_state(p), p, zero_program(), cfg)

    def test_scripted_ack_exhaustion_propagates(self):
        from rfneuron import AckMode, ProtocolError
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.5, Polarity.EXC)
        cfg = IntegratorConfig(dt=1e-6, t_end=0.05, sample_stride=50)
        protocol = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=60e-6,
                                   ack_delays=(0.0,))
        with pytest.raises(ProtocolError):
            integrate(equilibrium_state(p), p, prog, cfg, protocol)

    @pytest.mark.parametrize("t0", [-1e-3, 5e-3, 0.01])
    def test_start_outside_horizon_rejected(self, t0):
        p = CircuitParams()
        s0 = dataclasses.replace(equilibrium_state(p), t=t0)
        with pytest.raises(ValueError, match="start time"):
            integrate(s0, p, zero_program(), IntegratorConfig(t_end=5e-3))

    @pytest.mark.parametrize("max_events", [0, -1])
    def test_max_events_below_one_rejected(self, max_events):
        p = dataclasses.replace(CircuitParams(), V_th=0.840)
        prog = step(0.5, Polarity.EXC)
        with pytest.raises(ValueError, match="max_events"):
            integrate(equilibrium_state(p), p, prog, IntegratorConfig(t_end=0.05),
                      max_events=max_events)

    def test_trace_csv_round_trip(self, tmp_path):
        # the CLI's trace file holds every sample of the run to 12 significant digits
        config = tmp_path / "short.yaml"
        config.write_text("ringdown: {horizon: 0.005, settle_window: 0.002, integrator: "
                          "{dt: 1.0e-06, t_end: 0.005, sample_stride: 50}}\n")
        cfg = load_config(config)
        trace, _, _ = run_ringdown(cfg.neuron, cfg.ringdown, cfg.handshake)
        assert main(["ringdown", "--config", str(config), "--outdir", str(tmp_path)]) == 0
        path = tmp_path / "ringdown_trace.csv"
        header = path.read_text().splitlines()[0]
        assert header == "t_s,U_V,V_V,I_in_A,clamped,overflow"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert data.shape[0] == len(trace)
        columns = (trace.t, trace.U, trace.V, trace.I_in, trace.clamped, trace.overflow)
        for j, column in enumerate(columns):
            np.testing.assert_allclose(data[:, j], column.astype(float), rtol=1e-11, atol=0.0)


def reference_integrate(s0, p, prog, cfg, protocol=None, max_events=None):
    """``integrate()`` as a Python loop over single stops, each stepped by ``kernel_step``.

    This is the stop schedule that ``rf_run`` must reproduce bit for bit:
    grid stops, extra stops at off-grid breakpoints, the sample rule,
    segment switches at step midpoints and the crossing bisection.  The
    arguments must be valid; ``integrate()`` does the checking.
    """
    if protocol is None:
        protocol = HandshakeConfig(T_spk=p.T_spk)
    ref_current = 0.0
    if prog.is_constant:
        ref_current = synapse_current(*prog.drives_at(0.0), p)
    ref = derive_params(p, I_in=ref_current)

    dt, t_end, stride, tol = cfg.dt, cfg.t_end, cfg.sample_stride, cfg.crossing_tol
    n = math.floor(t_end / dt + _GRID_SNAP)
    last = n if n and n * dt >= t_end * (1.0 - _GRID_SNAP) else n + 1
    grid = range(1, last + 1)

    def stop(k):
        return k * dt if k < last else t_end

    def off_grid(b):
        i = bisect_left(grid, b, key=stop)
        return all(abs(b - stop(k)) > dt * _GRID_SNAP for k in (i, i + 1) if 1 <= k <= last)

    extras = [b for b in prog.breakpoints if 0.0 < b < t_end * (1.0 - _GRID_SNAP) and off_grid(b)]
    extras.append(math.inf)

    def after(x):
        y = x * (1.0 + _GRID_SNAP)
        return bisect_right(grid, y, key=stop) + 1, bisect_right(extras, y)

    def drive(x):
        seg = prog.segments[prog.segment_index(x)]
        i_in = synapse_current(seg.V_exc, seg.V_inh, p)
        return seg.t_start, seg.t_end, i_in, kernel_step(p, ref, i_in)

    fsm = HandshakeFSM(protocol)
    V_reset, V_th = p.V_reset, p.V_th
    t, u, v = s0.t, s0.U, s0.V
    seg_lo, seg_hi, I_in, step_fn = drive(t)
    rows = [(t, u, v, I_in, False)]
    k, e = after(t)
    while k <= last:
        t_next = stop(k)
        if extras[e] < t_next:
            t_next, sample = extras[e], False
            e += 1
        else:
            sample = k % stride == 0 or k == last
            k += 1
        h = t_next - t
        mid = t + 0.5 * h
        if not (seg_lo <= mid < seg_hi):
            seg_lo, seg_hi, I_in, step_fn = drive(mid)
        u_new, v_new = step_fn(u, v, h)
        if not v < V_th <= v_new:
            t, u, v = t_next, u_new, v_new
            if sample:
                rows.append((t, u, v, I_in, False))
            continue

        lo, hi = t, t_next
        while hi - lo > tol:
            m = 0.5 * (lo + hi)
            if step_fn(u, v, m - t)[1] >= V_th:
                hi = m
            else:
                lo = m
        event = fsm.on_threshold(hi)
        rows.append((hi, V_reset, V_th, 0.0, True))
        if max_events is not None and len(fsm.events) >= max_events:
            break
        k, e = after(hi)
        if k > last:
            break
        t_rel = event.t_release
        hold_end = min(t_rel, t_end) * (1.0 - _GRID_SNAP)
        while k < last and k * dt < hold_end:
            if k % stride == 0:
                rows.append((k * dt, V_reset, V_th, 0.0, True))
            k += 1
        if t_rel >= t_end:
            rows.append((t_end, V_reset, V_th, 0.0, True))
            break
        fsm.release(event)
        t, u, v = t_rel, V_reset, V_th
        seg_lo, seg_hi, I_in, step_fn = drive(t)
        rows.append((t, u, v, I_in, False))
        k, e = after(t)

    t, U, V, I_in = (np.array(col) for col in list(zip(*rows))[:4])
    lo, hi = p.v_min_guard, p.v_max_guard
    inside = (lo <= U) & (U <= hi) & (lo <= V) & (V <= hi)
    return Trace(t, U, V, I_in, np.array([r[4] for r in rows]), ~inside), fsm.events


@st.composite
def schedules(draw):
    """A short run with firing drive, off-grid and snapped edges, holds and acknowledges."""
    dt = draw(st.sampled_from([1e-5, 4e-6]))
    n_grid = draw(st.integers(50, 3000))
    t_end = (n_grid + draw(st.sampled_from([0.0, 0.37, 0.999, 1e-12, -1e-12]))) * dt

    def edge(x):
        k, kind = x
        offset = {"off": 0.4137, "snap+": 1e-10, "snap-": -1e-10, "near": 2e-8}[kind]
        return (1 + k % (n_grid - 1) + offset) * dt

    edges = draw(st.lists(st.tuples(st.integers(1, 10**6),
                                    st.sampled_from(["off", "snap+", "snap-", "near"])),
                          max_size=6).map(lambda xs: sorted({edge(x) for x in xs})))
    drives = st.tuples(st.sampled_from([0.0, 0.3, 0.45, 0.5, 0.6]), st.sampled_from([0.0, 0.3, 0.4]))
    bounds = [0.0, *edges, math.inf]
    prog = StimulusProgram([Segment(a, b, *draw(drives)) for a, b in zip(bounds, bounds[1:])])

    p = dataclasses.replace(CircuitParams(), V_th=draw(st.sampled_from([0.84, 0.85])))
    t0 = draw(st.sampled_from([0.0, 0.0, 0.31 * t_end, 17.5 * dt]))
    dp = derive_params(p)
    s0 = NeuronState(t=t0, U=dp.U_star, V=dp.V_star)
    cfg = IntegratorConfig(dt=dt, t_end=t_end, crossing_tol=draw(st.sampled_from([1e-9, 2.5e-8])),
                           sample_stride=draw(st.integers(1, 9) | st.just(10**9)))
    holds = st.floats(1e-5, 3e-3)
    protocol = draw(st.none() | holds.map(lambda T: HandshakeConfig(T_spk=T)) | st.builds(
        HandshakeConfig, mode=st.just(AckMode.SCRIPTED_ACK), T_spk=holds,
        ack_delays=st.lists(st.floats(0.0, 2e-3), max_size=8).map(tuple)))
    max_events = draw(st.none() | st.integers(1, 5))
    return s0, p, prog, cfg, protocol, max_events


def outcome(run, args):
    """The trace columns as bytes and the events, or the protocol error."""
    try:
        trace, events = run(*args)
    except ProtocolError as exc:
        return repr(exc)
    columns = ("t", "U", "V", "I_in", "clamped", "overflow")
    return [(getattr(trace, c).dtype, getattr(trace, c).tobytes()) for c in columns], repr(events)


class TestStopSchedule:
    @given(schedules())
    @example((  # off-grid pulse edges, a firing drive, a mid-grid start and an off-grid t_end
        NeuronState(t=2.05e-4, U=derive_params(CircuitParams()).U_star,
                    V=derive_params(CircuitParams()).V_star),
        dataclasses.replace(CircuitParams(), V_th=0.84),
        pulse(1.00037e-3, 523.4e-6, 0.6, Polarity.EXC),
        IntegratorConfig(dt=4e-6, t_end=0.0061234, sample_stride=3),
        None, None,
    ))
    @example((  # rhythmic firing, every grid stop sampled, scripted acknowledges
        equilibrium_state(dataclasses.replace(CircuitParams(), V_th=0.84)),
        dataclasses.replace(CircuitParams(), V_th=0.84),
        step(0.5, Polarity.EXC),
        IntegratorConfig(t_end=0.03, sample_stride=1),
        HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=60e-6,
                        ack_delays=(0.0, 1.234e-4, 2e-3, 0.0, 5e-5) * 4),
        None,
    ))
    @example((  # holds of hundreds of grid stops, each sampled, and a release past t_end
        equilibrium_state(dataclasses.replace(CircuitParams(), V_th=0.84)),
        dataclasses.replace(CircuitParams(), V_th=0.84),
        step(0.5, Polarity.EXC),
        IntegratorConfig(t_end=0.02, sample_stride=1),
        HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=60e-6,
                        ack_delays=(3e-3, 5.0037e-3, 0.1)),
        None,
    ))
    @settings(max_examples=80, deadline=None)
    def test_runner_matches_the_per_stop_loop(self, run):
        assert outcome(integrate, run) == outcome(reference_integrate, run)

    def test_release_just_past_a_grid_stop_stands_in_for_it(self):
        # a scripted acknowledge puts the first release less than dt * _GRID_SNAP
        # above grid stop k: the hold ends before stop k, and the release row
        # stands in for it
        p = dataclasses.replace(CircuitParams(), V_th=0.84)
        s0, prog = equilibrium_state(p), step(0.5, Polarity.EXC)
        cfg, T_spk = IntegratorConfig(t_end=0.01, sample_stride=1), 60e-6
        dt = cfg.dt
        first = integrate(s0, p, prog, cfg, HandshakeConfig(T_spk=T_spk), max_events=1)[1][0]
        k = math.ceil((first.t_req + T_spk) / dt) + 3
        delay = (k * dt + 0.5 * dt * _GRID_SNAP) - T_spk - first.t_req
        protocol = HandshakeConfig(mode=AckMode.SCRIPTED_ACK, T_spk=T_spk,
                                   ack_delays=(delay, 0.0, 0.0))
        run = (s0, p, prog, cfg, protocol, 3)
        trace, events = integrate(*run)
        assert len(events) == 3
        assert 0.0 < events[0].t_release - k * dt < dt * _GRID_SNAP
        assert outcome(integrate, run) == outcome(reference_integrate, run)
        assert np.min(np.diff(trace.t)) > dt * _GRID_SNAP


_CHIRP = ChirpSetup().program(v_limit=CircuitParams().V_DD)
_B = _CHIRP.breakpoints


class TestSegmentTables:
    """A short run on a long program builds tables only up to the segment holding t_end."""

    @pytest.mark.parametrize("t_end", [1e-4, _B[5], 0.5 * (_B[5] + _B[6]), _B[-1] + 1e-3],
                             ids=["0.1ms", "at-a-breakpoint", "mid-segment", "past-the-last"])
    def test_short_run_on_the_default_chirp(self, t_end, monkeypatch):
        p = dataclasses.replace(CircuitParams(), V_th=0.84)
        cfg = dataclasses.replace(ChirpSetup().integrator_config(_CHIRP), t_end=t_end,
                                  sample_stride=3)
        run = (equilibrium_state(p), p, _CHIRP, cfg, None, None)
        assert outcome(integrate, run) == outcome(reference_integrate, run)
        currents = []

        def counted(*args):
            currents.append(args)
            return synapse_current(*args)

        monkeypatch.setattr(integrator, "synapse_current", counted)
        integrate(*run[:4])
        assert len(currents) == _CHIRP.segment_index(t_end) + 1


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
