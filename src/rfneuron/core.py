"""Physical parameter set and continuous-time dynamics of the RF neuron core.

The resonator is a pair of capacitively loaded nodes (U, V) coupled through
subthreshold (weak-inversion) transistor exponentials:

    C1 dU/dt = I_in + I_IU - I_n0b * exp(a*V) - g_damp*(U - U_ref)
    C2 dV/dt = I_n0a * exp(a*U) - I_IV       - g_damp*(V - V_ref)

with a = kappa^2 / ((kappa + 1) * U_T).  Substituting the exponential branch
currents I_alpha = I_n0a*exp(a*U), I_beta = I_n0b*exp(a*V) turns this into a
two-species Lotka-Volterra system whose orbits circle a center; the small
explicit leak g_damp converts the center into a stable focus with decay
factor b = -g_damp/C exactly, so the quality factor has the closed form
Q = omega / (2|b|).

All functions here are pure; parameter objects are immutable and freely
shareable across concurrent runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from numbers import Real

from .errors import ConfigError, require_finite, require_nonnegative, require_positive

__all__ = [
    "CircuitParams",
    "NeuronState",
    "DerivedParams",
    "LinearizedRFState",
    "derive_params",
    "rhs",
    "lv_transform",
    "lv_invariant",
    "linearized_solution",
]

# Node voltages are clamped to this window inside the exponentials so that a
# pathological configuration saturates instead of overflowing float64.
VOLTAGE_GUARD_MARGIN = 0.2

# Largest argument math.exp takes without raising OverflowError.
_EXP_ARG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class CircuitParams:
    """Bias and device parameters of one neuron instance (SI units).

    Defaults reproduce the characterized operating point: biases per the
    fabricated device's operating table, with the calibration constants
    kappa_n = 0.7, U_T = 25.85 mV (300 K) and I_n0 = 47 fA chosen so the
    zero-input baseline of U sits at 724 mV.  g_damp = 6.0 pS places the
    quality factor near 139 at the 150 pA bias point (the characterized
    median is 129 with very wide die-to-die spread).

    The two exponential branches may be given distinct process currents
    (``I_n0_alpha`` for the U-driven branch, ``I_n0_beta`` for the V-driven
    branch); when left as ``None`` they fall back to ``I_n0``.  Die-to-die
    mismatch perturbs the two branches independently.  The default beta
    branch is calibrated to 20.5 fA, placing the V baseline at 798 mV,
    i.e. 52 mV below the 850 mV comparator threshold: that margin sets how
    much resonant build-up a pulse train needs to trigger a spike and is
    what gives the neuron its measured frequency-detection band.
    """

    C1: float = 1.2e-12          # F
    C2: float = 1.2e-12          # F
    I_n0: float = 47e-15         # A, shared process current (calibrated)
    kappa_n: float = 0.7         # gate coupling coefficient, dimensionless
    U_T: float = 25.85e-3        # V, thermal voltage at 300 K
    I_IU: float = 150e-12        # A
    I_IV: float = 150e-12        # A
    V_DD: float = 1.5            # V
    V_th: float = 0.850          # V, comparator threshold
    V_reset: float = 0.750       # V
    g_damp: float = 6.0e-12      # S, loop-gain residue modelled as a leak
    T_spk: float = 60e-6         # s, handshake hold duration (self-ack)
    I_s0_exc: float = 0.5e-15    # A, excitatory synapse scale (calibrated)
    I_s0_inh: float = 0.8e-15    # A, inhibitory synapse scale (calibrated)
    I_n0_alpha: float | None = None   # A, U-branch override
    I_n0_beta: float | None = 20.5e-15  # A, V-branch override (comparator margin)

    def __post_init__(self) -> None:
        # before the float conversion, which would turn True into 1.0
        require_finite(self)
        # a YAML integer or a numpy scalar from a mismatch draw becomes a
        # plain float, like every other field
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not float and (type(value) is int or isinstance(value, Real)):
                object.__setattr__(self, f.name, float(value))
        require_positive(self, "C1", "C2", "I_n0", "U_T", "I_IU", "I_IV", "I_s0_exc", "I_s0_inh",
                         "T_spk")
        for name in ("I_n0_alpha", "I_n0_beta"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ConfigError(f"{name} must be strictly positive when set, got {value!r}")
        if not 0.0 < self.kappa_n < 1.0:
            raise ConfigError(f"kappa_n must lie in (0, 1), got {self.kappa_n!r}")
        require_nonnegative(self, "g_damp")
        if not 0.0 < self.V_reset < self.V_th < self.V_DD:
            raise ConfigError(
                "voltage ordering 0 < V_reset < V_th < V_DD violated: "
                f"V_reset={self.V_reset!r}, V_th={self.V_th!r}, V_DD={self.V_DD!r}"
            )
        # the branch exponentials see at most v_max_guard, the synapses at most V_DD
        exp_args = (self.exp_slope * self.v_max_guard, self.kappa_n / self.U_T * self.V_DD)
        if max(exp_args) > _EXP_ARG_MAX:
            raise ConfigError(
                f"U_T={self.U_T!r} too small for V_DD={self.V_DD!r}: "
                "the branch or synapse exponentials overflow float64"
            )

    @property
    def exp_slope(self) -> float:
        """Exponential slope a = kappa^2 / ((kappa + 1) U_T), in 1/V."""
        return self.kappa_n**2 / ((self.kappa_n + 1.0) * self.U_T)

    @property
    def In0_alpha(self) -> float:
        """Effective process current of the U-driven exponential branch."""
        return self.I_n0 if self.I_n0_alpha is None else self.I_n0_alpha

    @property
    def In0_beta(self) -> float:
        """Effective process current of the V-driven exponential branch."""
        return self.I_n0 if self.I_n0_beta is None else self.I_n0_beta

    @property
    def v_min_guard(self) -> float:
        return -VOLTAGE_GUARD_MARGIN

    @property
    def v_max_guard(self) -> float:
        return self.V_DD + VOLTAGE_GUARD_MARGIN


@dataclass
class NeuronState:
    """Instantaneous free-running neuron state: time and node voltages."""

    t: float
    U: float
    V: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.U) and math.isfinite(self.V)):
            raise ValueError(f"non-finite state voltages U={self.U!r}, V={self.V!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Closed-form quantities of the linearized resonator.

    ``b`` is the decay factor (<= 0) and ``omega`` the angular resonant
    frequency; ``Q = omega / (2|b|)``, reported as ``inf`` for b = 0.
    ``I_alpha_star`` / ``I_beta_star`` are the branch currents at equilibrium.
    """

    U_star: float        # V
    V_star: float        # V
    omega: float         # rad/s
    b: float             # 1/s, <= 0
    Q: float             # dimensionless, inf when undamped
    I_alpha_star: float  # A
    I_beta_star: float   # A

    @property
    def f_res(self) -> float:
        """Resonant frequency in Hz."""
        return self.omega / (2.0 * math.pi)


@dataclass(frozen=True)
class LinearizedRFState:
    """State of the dimensionless linearized model du/dt = b u - w v + c I."""

    u: float
    v: float
    I: float = 0.0
    c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("u", "v", "I", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite linearized state field {name}")


def derive_params(p: CircuitParams, I_in: float = 0.0) -> DerivedParams:
    """Equilibrium point, resonant frequency, decay factor and Q.

    The equilibrium pins the branch currents to the opposing bias sources:
    I_alpha = I_IV and I_beta = I_IU + I_in, giving

        U* = ln(I_IV / I_n0a) / a,   V* = ln((I_IU + I_in) / I_n0b) / a,
        omega = a * sqrt(I_IV (I_IU + I_in) / (C1 C2)),
        b = -g_damp/2 * (1/C1 + 1/C2)   (= -g_damp/C for C1 = C2).

    Parameters
    ----------
    p:
        Circuit parameter set.
    I_in:
        Constant synaptic current folded into the equilibrium, amperes.

    Raises
    ------
    ConfigError
        If a branch bias does not exceed its process current, in which case
        the equilibrium logarithm has no positive argument, or if U* or V*
        lies outside the guard window [``v_min_guard``, ``v_max_guard``],
        where ``integrate()`` refuses to start.
    """
    a = p.exp_slope
    I_beta_star = p.I_IU + I_in
    if p.I_IV <= p.In0_alpha:
        raise ConfigError(f"I_IV={p.I_IV!r} must exceed the alpha-branch I_n0={p.In0_alpha!r}")
    if I_beta_star <= p.In0_beta:
        raise ConfigError(
            f"I_IU + I_in = {I_beta_star!r} must exceed the beta-branch I_n0={p.In0_beta!r}"
        )
    U_star = math.log(p.I_IV / p.In0_alpha) / a
    V_star = math.log(I_beta_star / p.In0_beta) / a
    for name, x in (("U*", U_star), ("V*", V_star)):
        if not p.v_min_guard <= x <= p.v_max_guard:
            raise ConfigError(
                f"equilibrium {name} = {x!r} V lies outside the guard window "
                f"[{p.v_min_guard!r}, {p.v_max_guard!r}]"
            )
    omega = a * math.sqrt(p.I_IV * I_beta_star / (p.C1 * p.C2))
    b = -0.5 * p.g_damp * (1.0 / p.C1 + 1.0 / p.C2)
    Q = math.inf if b == 0.0 else omega / (2.0 * abs(b))
    return DerivedParams(
        U_star=U_star, V_star=V_star, omega=omega, b=b, Q=Q,
        I_alpha_star=p.I_IV, I_beta_star=I_beta_star,
    )


def rhs(
    s: NeuronState,
    p: CircuitParams,
    I_in: float,
    ref: DerivedParams | None = None,
) -> tuple[float, float]:
    """Time derivatives (dU/dt, dV/dt) of the free-running resonator, V/s.

    ``ref`` supplies the damping reference point; it defaults to the
    zero-input equilibrium.  Voltages are saturated to the guard window
    before entering the exponentials so an out-of-range state degrades
    gracefully rather than overflowing.

    This is the readable oracle of the integrator's hot kernel, the RK4
    step in C in ``_rk4.c``, whose header sets out how it evaluates them;
    its step matches the RK4 step built from this function to a relative
    1e-15 over the orbit, as the tests pin.
    """
    if ref is None:
        ref = derive_params(p)
    a = p.exp_slope
    u_arg = min(max(s.U, p.v_min_guard), p.v_max_guard)
    v_arg = min(max(s.V, p.v_min_guard), p.v_max_guard)
    I_alpha = p.In0_alpha * math.exp(a * u_arg)
    I_beta = p.In0_beta * math.exp(a * v_arg)
    dU = (I_in + p.I_IU - I_beta - p.g_damp * (s.U - ref.U_star)) / p.C1
    dV = (I_alpha - p.I_IV - p.g_damp * (s.V - ref.V_star)) / p.C2
    return dU, dV


def lv_transform(s: NeuronState, p: CircuitParams) -> tuple[float, float]:
    """Branch currents (I_alpha, I_beta) of the predator-prey form, amperes.

    Strictly monotone in U (resp. V); the exponential change of variables
    maps the voltage dynamics onto a two-species Lotka-Volterra system.
    """
    a = p.exp_slope
    return p.In0_alpha * math.exp(a * s.U), p.In0_beta * math.exp(a * s.V)


def lv_invariant(s: NeuronState, p: CircuitParams, I_in: float = 0.0) -> float:
    """Conserved quantity of the undamped constant-input oscillation.

    H = (I_a - I_IV ln I_a)/s_a + (I_b - (I_IU + I_in) ln I_b)/s_b with the
    branch rate scalings s_a = a/C1, s_b = a/C2.  Along exact trajectories
    with g_damp = 0 and constant I_in, dH/dt = 0; with damping H decreases.
    H attains its global minimum at the equilibrium branch currents.

    The ``I ln I`` terms make H defined only up to an additive constant that
    depends on the current unit (amperes here), and that constant dominates
    |H|.  Only the excess H - H(U*, V*) is physical, so measure drift relative
    to it, not to |H|.
    """
    a = p.exp_slope
    I_alpha, I_beta = lv_transform(s, p)
    s_alpha = a / p.C1
    s_beta = a / p.C2
    return (
        (I_alpha - p.I_IV * math.log(I_alpha)) / s_alpha
        + (I_beta - (p.I_IU + I_in) * math.log(I_beta)) / s_beta
    )


def linearized_solution(x0: LinearizedRFState, dp: DerivedParams, t: float) -> LinearizedRFState:
    """Closed-form state of the linearized model after time ``t``.

    Solves du/dt = b u - w v + c I, dv/dt = w u + b v for constant I: the
    homogeneous part is the decaying rotation e^{bt} R(wt) applied to the
    displacement from the forced equilibrium, plus that equilibrium.  Exact
    to rounding, which makes it the reference for integrator order checks.
    """
    b, w = dp.b, dp.omega
    drive = x0.c * x0.I
    denom = b * b + w * w
    if drive != 0.0 and denom == 0.0:
        raise ValueError("constant-input particular solution undefined for b = omega = 0")
    if drive != 0.0:
        u_p = -drive * b / denom
        v_p = drive * w / denom
    else:
        u_p = 0.0
        v_p = 0.0
    du, dv = x0.u - u_p, x0.v - v_p
    decay = math.exp(b * t)
    cos_wt, sin_wt = math.cos(w * t), math.sin(w * t)
    u_t = u_p + decay * (du * cos_wt - dv * sin_wt)
    v_t = v_p + decay * (du * sin_wt + dv * cos_wt)
    return LinearizedRFState(u=u_t, v=v_t, I=x0.I, c=x0.c)
