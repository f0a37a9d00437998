"""Fixed-step RK4 integration with exact event handling.

The RK4 step is written once, in C (``_rk4.c``), with ``core.rhs``'s
derivative; ``core.rhs`` is its readable oracle, and a step matches the RK4
built from it to a relative 1e-15 over the orbit, the bias sweep and dies with
unequal channels (``tests/test_integrator.py``).  Each stage carries each
channel's ``exp`` argument d = a dx: its current balance C dx/dt times the
stage's scale a c h / C, so 1/C enters only the scales.  ``exp`` is called
once per channel at the step's start, with the guard off its way inside the
window.  A later stage near the start takes its branch current as K P(d),
with P a short polynomial and K (the scale times the start's branch current)
folded into P's coefficients once per step, so one stage's d follows from
the last by P and one subtraction.  The header of ``_rk4.c`` sets out how.
The C file exports one entry, a span runner, which owns the stop schedule of
a free-running span: it takes every stop, switches the drive segment, samples
into the trace's column buffers, and bisects the first threshold crossing,
returning its time.
``integrate()`` keeps what happens between spans: the handshake at each
crossing, the hold, the release, ``max_events`` and the size of the row
buffer.

The stops are computed, not stored: grid stop k is ``k * dt``, the last
stop is ``t_end``, and each program breakpoint more than ``dt * _GRID_SNAP``
from the grid is an extra stop, so no RK4 substep straddles a drive
discontinuity and each keeps its full order.  Threshold crossings are
bracketed inside a substep and refined by bisection on re-integrated partial
steps.  The handshake FSM turns each crossing time into an event with its
release time.  The state stays clamped at (V_reset, V_th) on the grid until
that release, or to ``t_end`` if the release lies beyond it, and integration
then resumes mid-grid from (t_release, V_reset, V_th).

Traces hold every ``sample_stride``-th grid stop and ``t_end``, plus samples
at clamp entry and release that delimit each clamp window exactly.

Importing this module needs ``gcc`` on ``PATH`` the first time: it compiles
``_rk4.c`` with ``-O2 -ffp-contract=off`` and no fast-math, so that the source
fixes every rounding and a rerun, on a fresh build too, is byte-identical.
The build goes into ``__pycache__`` beside the source, or into a private
directory under the temp dir when that is read-only, and is loaded with
``ctypes``.  Later imports load the cached build, keyed by the CRC-32 of the
source and the flags.  Without ``gcc`` and a cached build the import fails
with one ``ImportError``.
"""

from __future__ import annotations

import ctypes
import math
import os
import tempfile
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CircuitParams, DerivedParams, NeuronState, derive_params
from .errors import ConfigError, require_count, require_finite, require_positive
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

_KERNEL_SOURCE = Path(__file__).with_name("_rk4.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_TUV = ctypes.c_double * 3
_KS = ctypes.c_int64 * 4


def _compile(source: Path, out: str) -> None:
    import subprocess  # only a cache miss needs it

    cmd = ["gcc", *_CFLAGS, "-o", out, str(source), "-lm"]
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300)
    except OSError as exc:
        raise ImportError(f"rfneuron needs gcc on PATH to build its RK4 kernel: {exc}") from None
    except subprocess.SubprocessError as exc:
        detail = (getattr(exc, "stderr", None) or "").strip()
        raise ImportError(f"gcc could not build {source}: {exc} {detail}".strip()) from None


def _private_temp_dir() -> Path:
    """This user's cache directory in the temp dir, refused if anyone else can write it."""
    path = Path(tempfile.gettempdir()) / f"rfneuron-{os.getuid()}"
    path.mkdir(mode=0o700, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise ImportError(f"{path} is not a private directory; remove it to cache the RK4 kernel")
    return path


def _build_in(cache: Path, source: Path, name: str) -> Path:
    """The build ``cache / name``, compiled there first on a miss.

    Raises ``OSError`` when ``cache`` cannot be written.  gcc writes a
    temporary file that is then renamed into place, so a concurrent import
    never loads a partial build.
    """
    so = cache / name
    if so.is_file():
        return so
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        _compile(source, tmp)
        os.replace(tmp, so)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so


def _load_kernel(source: Path = _KERNEL_SOURCE) -> ctypes.CDLL:
    """Load the compiled ``source``, building it with gcc on a cache miss."""
    key = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(source.read_bytes()))
    name = f"{source.stem}-{key:08x}.so"
    for cache in (lambda: source.parent / "__pycache__", _private_temp_dir):
        try:
            so = _build_in(cache(), source, name)
            break
        except OSError:
            continue  # not writable: try the next directory
    else:
        raise ImportError(f"no writable cache directory for the RK4 kernel built from {source}")
    lib = ctypes.CDLL(str(so))
    lib.rf_run.argtypes = (
        *[ctypes.c_void_p] * 4, ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int64, ctypes.c_int64, *[ctypes.c_double] * 4, ctypes.c_void_p, ctypes.c_int64,
    )
    lib.rf_run.restype = ctypes.c_int
    return lib


_lib = _load_kernel()


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
        require_positive(self, "dt", "t_end")
        if not 0.0 < self.crossing_tol <= self.dt:
            raise ConfigError(
                f"crossing_tol must lie in (0, dt={self.dt!r}], got {self.crossing_tol!r}"
            )
        require_count(self, 1, "sample_stride")

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


def _span_params(p: CircuitParams, ref: DerivedParams, I_in: float) -> tuple[float, ...]:
    """The kernel's constants for one constant-drive segment, in ``_rk4.c``'s order."""
    return (
        p.exp_slope, p.In0_alpha, p.In0_beta,
        I_in + p.I_IU,  # core.rhs adds these two first, so folding them is exact
        p.I_IV, p.g_damp, 1.0 / p.C1, 1.0 / p.C2, ref.U_star, ref.V_star,
        p.v_min_guard, p.v_max_guard,
    )


class _Rows:
    """Trace rows in column buffers that the span runner and ``integrate()`` both fill."""

    def __init__(self, cap: int) -> None:
        self.cols = np.empty((4, cap))  # t, U, V, I_in; C order, as rf_run writes them
        self.clamped = np.zeros(cap, dtype=bool)
        self.ptr = self.cols.ctypes.data
        self.n = 0

    @property
    def cap(self) -> int:
        return len(self.clamped)

    def reserve(self, m: int) -> None:
        """Make room for ``m`` more rows, at least doubling the buffer when it grows."""
        if self.n + m > self.cap:
            cap = max(self.n + m, 2 * self.cap)
            cols, self.cols = self.cols, np.empty((4, cap))
            self.cols[:, : self.n] = cols[:, : self.n]
            self.clamped = np.concatenate([self.clamped, np.zeros(cap - self.cap, dtype=bool)])
            self.ptr = self.cols.ctypes.data

    def add(self, t: float, u: float, v: float, I_in: float, clamped: bool = False) -> None:
        self.reserve(1)
        self.cols[:, self.n] = t, u, v, I_in
        self.clamped[self.n] = clamped
        self.n += 1

    def trace(self, vmin: float, vmax: float) -> Trace:
        """The rows so far; a clamped row holds (V_reset, V_th), inside the window."""
        t, U, V, I_in = self.cols[:, : self.n]
        inside = (vmin <= U) & (U <= vmax) & (vmin <= V) & (V <= vmax)
        return Trace(t, U, V, I_in, self.clamped[: self.n], ~inside)


def integrate(
    s0: NeuronState,
    p: CircuitParams,
    prog: StimulusProgram,
    cfg: IntegratorConfig,
    protocol: HandshakeConfig | None = None,
    max_events: int | None = None,
) -> tuple[Trace, list[SpikeEvent]]:
    """Integrate the neuron from ``s0`` to ``t_end`` and collect output spike events.

    ``s0`` is a free-running state at a time in [0, t_end) with U and V
    inside the guard window [``v_min_guard``, ``v_max_guard``].  Each
    threshold crossing is an event: the state is held at (V_reset, V_th)
    until the event's release and then runs free again.  ``max_events``,
    when given, must be at least 1: the run then ends at the crossing of
    that event.  The damping
    reference is the equilibrium with the program's constant input folded in
    when the program is a single constant segment; transient programs
    reference the zero-input equilibrium.
    """
    vmin, vmax = p.v_min_guard, p.v_max_guard
    if not 0.0 <= s0.t < cfg.t_end:
        raise ValueError(f"start time {s0.t!r} outside [0, t_end={cfg.t_end!r})")
    if not (vmin <= s0.U <= vmax and vmin <= s0.V <= vmax):
        raise ValueError(
            f"start state U={s0.U!r}, V={s0.V!r} outside the guard window [{vmin!r}, {vmax!r}]"
        )
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

    # rf_run's tables: kernel constants, end time and input current per segment up to
    # the one holding t_end (no step midpoint reaches past it), extra stops
    segments = prog.segments[: prog.segment_index(t_end) + 1]
    currents = [synapse_current(seg.V_exc, seg.V_inh, p) for seg in segments]
    tables = (
        np.array([_span_params(p, ref, c) for c in currents]),
        np.array([seg.t_end for seg in segments]),
        np.array(currents),
        np.array(extras),
    )
    table_ptrs = [a.ctypes.data for a in tables]  # `tables` keeps the memory alive

    fsm = HandshakeFSM(protocol)
    V_reset, V_th = p.V_reset, p.V_th
    t, u, v = s0.t, s0.U, s0.V
    s = prog.segment_index(t)
    rows = _Rows(0)
    rows.add(t, u, v, currents[s])
    k, e = after(t)
    tuv, ks = _TUV(), _KS()

    while True:
        rows.reserve((last - k) // stride + 2)  # every grid row left, and t_end
        tuv[:], ks[:] = (t, u, v), (k, e, rows.n, s)
        crossed = _lib.rf_run(*table_ptrs, tuv, ks, last, stride, dt, t_end, V_th,
                              cfg.crossing_tol, rows.ptr, rows.cap)
        (t, u, v), (k, e, rows.n, s) = tuv, ks
        if not crossed:
            break

        event = fsm.on_threshold(t)
        rows.add(t, V_reset, V_th, 0.0, clamped=True)
        if max_events is not None and len(fsm.events) >= max_events:
            break
        k, e = after(t)
        if k > last:
            break
        # hold: clamped samples on the grid, then the release or the horizon
        t_rel = event.t_release
        hold_end = min(t_rel, t_end) * (1.0 - _GRID_SNAP)
        while k < last and k * dt < hold_end:
            if k % stride == 0:
                rows.add(k * dt, V_reset, V_th, 0.0, clamped=True)
            k += 1
        if t_rel >= t_end:
            rows.add(t_end, V_reset, V_th, 0.0, clamped=True)
            break
        fsm.release(event)
        t, u, v = t_rel, V_reset, V_th
        s = prog.segment_index(t)
        rows.add(t, u, v, currents[s])
        k, e = after(t)

    return rows.trace(vmin, vmax), fsm.events
