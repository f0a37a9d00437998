#!/usr/bin/env python3
"""Ringdown after one inhibitory pulse.

A single 0.5 V / 100 us inhibitory pulse yanks the U node down by ~50 mV.
What follows is the signature move of a resonator: both node voltages
spiral back to rest as a decaying oscillation instead of relaxing
monotonically.  From that one transient we read off all four headline
numbers of the cell -- baseline, first rebound peak, resonant frequency,
and the quality factor of the decay envelope.
"""

import os

import numpy as np

from rfneuron import CircuitParams, derive_params
from rfneuron.cli import write_csv
from rfneuron.experiments import run_ringdown

OUT = os.path.join(os.path.dirname(__file__), "out", "ringdown")


def main():
    os.makedirs(OUT, exist_ok=True)
    p = CircuitParams()
    dp = derive_params(p)
    print(f"analytic operating point: U*=V-baseline partner {dp.U_star*1e3:.1f} mV, "
          f"f_res={dp.f_res:.1f} Hz, Q={dp.Q:.1f}")

    trace, events, metrics = run_ringdown(p)
    columns = (trace.t, trace.U, trace.V, trace.I_in, trace.clamped, trace.overflow)
    header = ("t_s", "U_V", "V_V", "I_in_A", "clamped", "overflow")
    write_csv(os.path.join(OUT, "trace.csv"), header, zip(*(c.tolist() for c in columns)))

    print(f"simulated 0.3 s, {len(trace)} samples, {len(events)} spikes "
          f"(subthreshold by design: V_th = {p.V_th*1e3:.0f} mV)")
    print(f"  baseline   U = {metrics.baseline_U*1e3:7.2f} mV, "
          f"V = {metrics.baseline_V*1e3:7.2f} mV")
    print(f"  first peak U = {metrics.first_peak_U*1e3:7.2f} mV, "
          f"V = {metrics.first_peak_V*1e3:7.2f} mV")
    print(f"  f_res = {metrics.f_res:.2f} Hz   Q = {metrics.q_factor:.1f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
        sel = trace.t < 0.15
        ax1.plot(trace.t[sel] * 1e3, trace.U[sel] * 1e3, label="U")
        ax1.plot(trace.t[sel] * 1e3, trace.V[sel] * 1e3, label="V")
        ax1.set_xlabel("t (ms)")
        ax1.set_ylabel("node voltage (mV)")
        ax1.set_title("time domain")
        ax1.legend()
        ax2.plot(trace.U * 1e3, trace.V * 1e3, lw=0.5)
        ax2.set_xlabel("U (mV)")
        ax2.set_ylabel("V (mV)")
        ax2.set_title("phase plane: decaying spiral")
        fig.tight_layout()
        fig.savefig(os.path.join(OUT, "ringdown.png"), dpi=120)
        print(f"wrote {OUT}/ringdown.png")
    except Exception:
        print("matplotlib unavailable; CSV written, skipping the figure")


if __name__ == "__main__":
    main()
