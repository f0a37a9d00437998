"""Fixed-step RK4 integration with exact event handling.

The stops are computed, not stored: grid stop k is ``k * dt``, the last
stop is ``t_end``, and each program breakpoint more than ``dt * _GRID_SNAP``
from the grid is an extra stop, so no RK4 substep straddles a drive
discontinuity and each keeps its full order.  Threshold crossings are
bracketed inside a substep and refined by bisection on re-integrated partial
steps.  The handshake hold is resolved at the crossing: the state stays
clamped on the grid until the FSM's release, or to ``t_end`` if the release
lies beyond it, and integration then resumes mid-grid.

Traces hold every ``sample_stride``-th grid stop and ``t_end``, plus samples
at clamp entry and release that delimit each clamp window exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CircuitParams, DerivedParams, NeuronState, Phase, derive_params
from .errors import ConfigError, require_finite
from .handshake import HandshakeConfig, HandshakeFSM, SpikeEvent
from .stimuli import StimulusProgram, synapse_current

__all__ = [
    "IntegratorConfig",
    "Trace",
    "integrate",
]

# Minimum resolution of the nominal resonance demanded of the step size.
MIN_STEPS_PER_PERIOD = 50.0

# Relative tolerance used when snapping breakpoints onto the step grid.
_GRID_SNAP = 1e-9

Deriv = Callable[[float, float], tuple[float, float]]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, event refinement tolerance and trace decimation.

    This is the package's one default step: 10 us, ~450 steps per period at
    the 150 pA operating point.  Halving it moves no ringdown, chirp or F-I
    output beyond the tolerances of ``tests/test_step_convergence.py``.  The
    default stride records every 50 us.
    """

    dt: float = 1e-5
    t_end: float = 0.3
    crossing_tol: float = 1e-9
    sample_stride: int = 5

    def __post_init__(self) -> None:
        require_finite(self)
        if self.dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if self.t_end <= 0.0:
            raise ConfigError(f"t_end must be positive, got {self.t_end!r}")
        if not 0.0 < self.crossing_tol <= self.dt:
            raise ConfigError(
                f"crossing_tol must lie in (0, dt={self.dt!r}], got {self.crossing_tol!r}"
            )
        if self.sample_stride < 1 or self.sample_stride != int(self.sample_stride):
            raise ConfigError(f"sample_stride must be a positive integer, got {self.sample_stride!r}")

    def validate_against(self, f_nominal: float) -> None:
        """Enforce dt <= 1/(50 f_res) so one period spans >= 50 steps."""
        limit = 1.0 / (MIN_STEPS_PER_PERIOD * f_nominal)
        if self.dt > limit:
            raise ConfigError(
                f"dt={self.dt!r} too coarse for nominal resonance {f_nominal:.6g} Hz "
                f"(limit {limit:.6g} s)"
            )


@dataclass
class Trace:
    """Decimated (t, U, V, I_in) samples plus clamp and overflow flags."""

    t: np.ndarray
    U: np.ndarray
    V: np.ndarray
    I_in: np.ndarray
    clamped: np.ndarray
    overflow: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("U", "V", "I_in", "clamped", "overflow"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace column {name} length mismatch")
        if n > 1 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("trace timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def any_overflow(self) -> bool:
        return bool(np.any(self.overflow))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t_s,U_V,V_V,I_in_A,clamped,overflow\n")
            for i in range(len(self.t)):
                fh.write(
                    f"{self.t[i]:.12g},{self.U[i]:.12g},{self.V[i]:.12g},"
                    f"{self.I_in[i]:.12g},{int(self.clamped[i])},{int(self.overflow[i])}\n"
                )


def _rk4_once(u: float, v: float, h: float, f: Deriv) -> tuple[float, float]:
    """RK4 update with a time-independent derivative (constant drive)."""
    half = 0.5 * h
    du1, dv1 = f(u, v)
    du2, dv2 = f(u + half * du1, v + half * dv1)
    du3, dv3 = f(u + half * du2, v + half * dv2)
    du4, dv4 = f(u + h * du3, v + h * dv3)
    return (
        u + h * (du1 + 2.0 * (du2 + du3) + du4) / 6.0,
        v + h * (dv1 + 2.0 * (dv2 + dv3) + dv4) / 6.0,
    )


def _make_deriv(p: CircuitParams, ref: DerivedParams, I_in: float) -> Deriv:
    """Closure evaluating the node derivatives for one constant-drive span."""
    a = p.exp_slope
    In0a, In0b = p.In0_alpha, p.In0_beta
    IIU, IIV, g = p.I_IU, p.I_IV, p.g_damp
    inv_C1, inv_C2 = 1.0 / p.C1, 1.0 / p.C2
    Uref, Vref = ref.U_star, ref.V_star
    vmin, vmax = p.v_min_guard, p.v_max_guard
    exp = math.exp

    def f(u: float, v: float) -> tuple[float, float]:
        ua = vmin if u < vmin else (vmax if u > vmax else u)
        va = vmin if v < vmin else (vmax if v > vmax else v)
        return (
            (I_in + IIU - In0b * exp(a * va) - g * (u - Uref)) * inv_C1,
            (In0a * exp(a * ua) - IIV - g * (v - Vref)) * inv_C2,
        )

    return f


def integrate(
    s0: NeuronState,
    p: CircuitParams,
    prog: StimulusProgram,
    cfg: IntegratorConfig,
    protocol: HandshakeConfig | None = None,
    max_events: int | None = None,
) -> tuple[Trace, list[SpikeEvent]]:
    """Integrate the neuron from ``s0`` to ``t_end`` and collect output spike events.

    ``s0`` must be free-running (``Phase.OSCILLATE``) at a time in
    [0, t_end), and ``max_events``, when given, at least 1: the run then
    ends at the crossing of that event.  The damping reference is the
    equilibrium with the program's constant input folded in when the
    program is a single constant segment; transient programs reference the
    zero-input equilibrium.
    """
    if s0.phase is not Phase.OSCILLATE:
        raise ValueError("integrate() needs a free-running start state, not a clamped one")
    if not 0.0 <= s0.t < cfg.t_end:
        raise ValueError(f"start time {s0.t!r} outside [0, t_end={cfg.t_end!r})")
    if max_events is not None and max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {max_events!r}")
    if protocol is None:
        protocol = HandshakeConfig(T_spk=p.T_spk)

    ref_current = 0.0
    if prog.is_constant:
        v_exc, v_inh = prog.drives_at(0.0)
        ref_current = synapse_current(v_exc, v_inh, p)
    ref = derive_params(p, I_in=ref_current)
    cfg.validate_against(ref.f_res)

    # Stop k (1-based) is k*dt; stop `last` is t_end, onto which a grid
    # point within the snap tolerance below it is merged.
    dt, t_end, stride = cfg.dt, cfg.t_end, cfg.sample_stride
    n = math.floor(t_end / dt + _GRID_SNAP)
    last = n if n and n * dt >= t_end * (1.0 - _GRID_SNAP) else n + 1
    grid = range(1, last + 1)

    def stop(k: int) -> float:
        return k * dt if k < last else t_end

    def off_grid(b: float) -> bool:
        i = bisect_left(grid, b, key=stop)  # stops i and i + 1 bracket b
        return all(abs(b - stop(k)) > dt * _GRID_SNAP for k in (i, i + 1) if 1 <= k <= last)

    extras = [b for b in prog.breakpoints if 0.0 < b < t_end * (1.0 - _GRID_SNAP) and off_grid(b)]
    extras.append(math.inf)  # sentinel: never the next stop

    def after(x: float) -> tuple[int, int]:
        """Indices of the first grid stop and first extra stop later than x * (1 + _GRID_SNAP)."""
        y = x * (1.0 + _GRID_SNAP)
        return bisect_right(grid, y, key=stop) + 1, bisect_right(extras, y)

    fsm = HandshakeFSM(protocol, V_reset=p.V_reset, V_th=p.V_th)
    V_reset, V_th = p.V_reset, p.V_th
    vmin, vmax = p.v_min_guard, p.v_max_guard
    tol = cfg.crossing_tol

    def out_of_range(x: float, y: float) -> bool:
        return not (vmin <= x <= vmax and vmin <= y <= vmax)

    def drive(x: float):
        """The constant-drive segment at ``x``, its input current and derivative closure."""
        seg = prog.segment_at(x)
        i_in = synapse_current(seg.V_exc, seg.V_inh, p)
        return seg, i_in, _make_deriv(p, ref, i_in)

    t, u, v = s0.t, s0.U, s0.V
    cur_seg, I_in, f = drive(t)
    rows = [(t, u, v, I_in, False, out_of_range(u, v))]
    k, e = after(t)

    while k <= last:
        t_next = k * dt if k < last else t_end  # stop(k), inlined
        if extras[e] < t_next:
            t_next, sample = extras[e], False
            e += 1
        else:
            sample = k % stride == 0 or k == last
            k += 1
        h = t_next - t
        mid = t + 0.5 * h
        if not (cur_seg.t_start <= mid < cur_seg.t_end):
            cur_seg, I_in, f = drive(mid)

        u_new, v_new = _rk4_once(u, v, h, f)
        if not v < V_th <= v_new:
            t, u, v = t_next, u_new, v_new
            if sample:
                rows.append((t, u, v, I_in, False, out_of_range(u, v)))
            continue

        lo, hi = t, t_next
        while hi - lo > tol:
            m = 0.5 * (lo + hi)
            _, v_m = _rk4_once(u, v, m - t, f)
            if v_m >= V_th:
                hi = m
            else:
                lo = m
        u_c, v_c = _rk4_once(u, v, hi - t, f)
        clamped, event = fsm.on_threshold(hi, NeuronState(t=hi, U=u_c, V=v_c))
        rows.append((hi, clamped.U, clamped.V, 0.0, True, False))
        if max_events is not None and len(fsm.events) >= max_events:
            break
        k, e = after(hi)
        if k > last:
            break
        # hold: clamped samples on the grid, then the release or the horizon
        t_rel = event.t_release
        hold_end = min(t_rel, t_end) * (1.0 - _GRID_SNAP)
        while k < last and k * dt < hold_end:
            if k % stride == 0:
                rows.append((k * dt, V_reset, V_th, 0.0, True, False))
            k += 1
        if t_rel >= t_end:
            rows.append((t_end, V_reset, V_th, 0.0, True, False))
            break
        released = fsm.release(NeuronState(t=t_rel, U=V_reset, V=V_th, phase=Phase.CLAMPED), event)
        t, u, v = released.t, released.U, released.V
        cur_seg, I_in, f = drive(t)
        rows.append((t, u, v, I_in, False, out_of_range(u, v)))
        k, e = after(t)

    # rows are (t, U, V, I_in, clamped, overflow); bool columns stay bool
    return Trace(*map(np.asarray, zip(*rows))), fsm.events
