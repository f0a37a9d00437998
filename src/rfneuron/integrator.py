"""Fixed-step RK4 integration with exact event handling.

The run marches on a uniform grid of step ``dt`` but never integrates across
a stimulus discontinuity: every program breakpoint becomes a stop, so each
RK4 substep sees a constant drive and retains its full order.  Threshold
crossings are bracketed inside a substep and refined by bisection on
re-integrated partial steps; the handshake FSM then clamps the state until
its scheduled release, after which integration resumes mid-grid.

Traces are recorded on the decimated grid (every ``sample_stride``-th step)
with extra samples inserted at clamp entry and release so the clamp window
is exactly delimited in the output.
"""

from __future__ import annotations

import math
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


class _Recorder:
    """Accumulates trace samples, collapsing duplicate timestamps."""

    def __init__(self) -> None:
        self.t: list[float] = []
        self.U: list[float] = []
        self.V: list[float] = []
        self.I: list[float] = []
        self.clamped: list[bool] = []
        self.overflow: list[bool] = []

    def add(self, t: float, u: float, v: float, i_in: float,
            clamped: bool, overflow: bool) -> None:
        if self.t and t <= self.t[-1]:
            if t == self.t[-1]:
                # later knowledge of the same instant wins (e.g. clamp at a grid point)
                self.t.pop(); self.U.pop(); self.V.pop()
                self.I.pop(); self.clamped.pop(); self.overflow.pop()
            else:
                return
        self.t.append(t)
        self.U.append(u)
        self.V.append(v)
        self.I.append(i_in)
        self.clamped.append(clamped)
        self.overflow.append(overflow)

    def build(self) -> Trace:
        return Trace(
            t=np.asarray(self.t), U=np.asarray(self.U), V=np.asarray(self.V),
            I_in=np.asarray(self.I),
            clamped=np.asarray(self.clamped, dtype=bool),
            overflow=np.asarray(self.overflow, dtype=bool),
        )


def _build_schedule(cfg: IntegratorConfig, prog: StimulusProgram) -> tuple[np.ndarray, np.ndarray]:
    """Stop times after t=0 (grid boundaries, breakpoints, horizon) + sample flags."""
    dt, t_end = cfg.dt, cfg.t_end
    n_grid = int(math.floor(t_end / dt + _GRID_SNAP))
    grid_idx = np.arange(1, n_grid + 1)
    grid = grid_idx * dt
    is_sample = (grid_idx % cfg.sample_stride) == 0
    if n_grid == 0 or grid[-1] < t_end * (1.0 - _GRID_SNAP):
        grid = np.append(grid, t_end)
        is_sample = np.append(is_sample, True)
    else:
        grid[-1] = t_end  # snap the final boundary; always record the end point
        is_sample[-1] = True

    bps = [b for b in prog.breakpoints if 0.0 < b < t_end * (1.0 - _GRID_SNAP)]
    if bps:
        snap = dt * _GRID_SNAP
        extra = []
        for b in bps:
            j = np.searchsorted(grid, b)
            near = []
            if j < len(grid):
                near.append(grid[j])
            if j > 0:
                near.append(grid[j - 1])
            if not any(abs(b - g) <= snap for g in near):
                extra.append(b)
        if extra:
            grid = np.concatenate([grid, np.asarray(extra)])
            is_sample = np.concatenate([is_sample, np.zeros(len(extra), dtype=bool)])
            order = np.argsort(grid, kind="stable")
            grid = grid[order]
            is_sample = is_sample[order]
    return grid, is_sample


def integrate(
    s0: NeuronState,
    p: CircuitParams,
    prog: StimulusProgram,
    cfg: IntegratorConfig,
    protocol: HandshakeConfig | None = None,
    max_events: int | None = None,
) -> tuple[Trace, list[SpikeEvent]]:
    """Integrate the neuron over [0, t_end] and collect output spike events.

    The damping reference is the equilibrium with the program's constant
    input folded in when the program is a single constant segment; transient
    programs reference the zero-input equilibrium.
    """
    if protocol is None:
        protocol = HandshakeConfig(T_spk=p.T_spk)

    ref_current = 0.0
    if prog.is_constant:
        v_exc, v_inh = prog.drives_at(0.0)
        ref_current = synapse_current(v_exc, v_inh, p)
    ref = derive_params(p, I_in=ref_current)
    cfg.validate_against(ref.f_res)

    stops, stop_is_sample = _build_schedule(cfg, prog)
    fsm = HandshakeFSM(protocol, V_reset=p.V_reset, V_th=p.V_th)
    rec = _Recorder()

    t = s0.t
    u, v = s0.U, s0.V
    phase = s0.phase
    V_th = p.V_th
    vmin, vmax = p.v_min_guard, p.v_max_guard

    def out_of_range(x: float, y: float) -> bool:
        return not (vmin <= x <= vmax and vmin <= y <= vmax)

    # Current constant-drive span and its derivative closure.
    cur_seg = prog.segment_at(t)
    I_in = synapse_current(cur_seg.V_exc, cur_seg.V_inh, p)
    f = _make_deriv(p, ref, I_in)

    rec.add(t, u, v, 0.0 if phase is Phase.CLAMPED else I_in,
            phase is Phase.CLAMPED, out_of_range(u, v))

    pending_event: SpikeEvent | None = None
    idx = int(np.searchsorted(stops, t * (1.0 + _GRID_SNAP), side="right"))
    t_end = cfg.t_end
    n_stops = len(stops)

    while idx < n_stops:
        if phase is Phase.CLAMPED:
            assert pending_event is not None
            t_rel = pending_event.t_release
            # record clamped samples on the sampling grid inside the hold
            while idx < n_stops and stops[idx] < min(t_rel, t_end) * (1.0 - _GRID_SNAP):
                if stop_is_sample[idx]:
                    rec.add(stops[idx], p.V_reset, V_th, 0.0, True, False)
                idx += 1
            if t_rel >= t_end:
                rec.add(t_end, p.V_reset, V_th, 0.0, True, False)
                break
            released = fsm.release(
                NeuronState(t=t_rel, U=p.V_reset, V=V_th, phase=Phase.CLAMPED),
                pending_event,
            )
            pending_event = None
            t, u, v, phase = released.t, released.U, released.V, Phase.OSCILLATE
            cur_seg = prog.segment_at(t)
            I_in = synapse_current(cur_seg.V_exc, cur_seg.V_inh, p)
            f = _make_deriv(p, ref, I_in)
            rec.add(t, u, v, I_in, False, out_of_range(u, v))
            idx = int(np.searchsorted(stops, t * (1.0 + _GRID_SNAP), side="right"))
            continue

        t_next = float(stops[idx])
        h = t_next - t
        if h <= 0.0:
            idx += 1
            continue
        mid = t + 0.5 * h
        if not (cur_seg.t_start <= mid < cur_seg.t_end):
            cur_seg = prog.segment_at(mid)
            I_in = synapse_current(cur_seg.V_exc, cur_seg.V_inh, p)
            f = _make_deriv(p, ref, I_in)

        u_new, v_new = _rk4_once(u, v, h, f)

        if v < V_th <= v_new:
            lo, hi = t, t_next
            u0, v0 = u, v
            tol = cfg.crossing_tol
            while hi - lo > tol:
                m = 0.5 * (lo + hi)
                _, v_m = _rk4_once(u0, v0, m - t, f)
                if v_m >= V_th:
                    hi = m
                else:
                    lo = m
            t_cross = hi
            u_c, v_c = _rk4_once(u0, v0, t_cross - t, f)
            clamped_state, event = fsm.on_threshold(
                t_cross, NeuronState(t=t_cross, U=u_c, V=v_c, phase=Phase.OSCILLATE)
            )
            phase = Phase.CLAMPED
            pending_event = event
            t, u, v = t_cross, clamped_state.U, clamped_state.V
            rec.add(t, u, v, 0.0, True, False)
            if max_events is not None and len(fsm.events) >= max_events:
                break
            idx = int(np.searchsorted(stops, t * (1.0 + _GRID_SNAP), side="right"))
            continue

        t, u, v = t_next, u_new, v_new
        if stop_is_sample[idx]:
            rec.add(t, u, v, I_in, False, out_of_range(u, v))
        idx += 1

    return rec.build(), fsm.events
