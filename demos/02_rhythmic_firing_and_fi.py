#!/usr/bin/env python3
"""Rhythmic firing under constant drive, and the discontinuous F-I curve.

Drive the excitatory synapse with a constant level and the neuron either
stays perfectly silent or snaps into metronome-like firing near its
resonant rate -- there is no gradual onset.  That jump is the class II
signature that separates resonator neurons from integrators: plotting the
rate against the input level shows zero right up to an onset level
(~420 mV here) and a few hundred hertz immediately after it.
"""

import dataclasses
import os

import numpy as np

from rfneuron import CircuitParams, IntegratorConfig, NeuronState, derive_params, integrate, step
from rfneuron.analysis import fi_curve
from rfneuron.cli import write_csv
from rfneuron.stimuli import Polarity

OUT = os.path.join(os.path.dirname(__file__), "out", "fi")


def main():
    os.makedirs(OUT, exist_ok=True)
    p = dataclasses.replace(CircuitParams(), V_th=0.840)

    # one suprathreshold run, to look at the spike train itself
    dp = derive_params(p)
    prog = step(0.5, Polarity.EXC)
    cfg = IntegratorConfig(dt=1e-6, t_end=0.06, sample_stride=20)
    s0 = NeuronState(t=0.0, U=dp.U_star, V=dp.V_star)
    trace, events = integrate(s0, p, prog, cfg)
    isis = np.diff([e.t_req for e in events])
    print(f"0.5 V step: {len(events)} spikes in 60 ms, "
          f"ISI = {np.mean(isis)*1e3:.3f} ms +- {np.std(isis)*1e3:.4f} ms "
          f"(rate {1.0/np.mean(isis):.1f} Hz)")

    # the full curve (reduced spike budget keeps this demo snappy)
    levels = list(np.linspace(0.0, 0.5, 26))
    rows = fi_curve(p, levels, spikes_per_point=25, timeout=0.4)
    write_csv(os.path.join(OUT, "fi_curve.csv"), ("level_V", "rate_Hz", "rate_std_Hz"), rows)
    onset = next((lv for lv, r, _ in rows if r > 0), None)
    print(f"F-I curve: silent below {onset*1e3:.0f} mV, then an immediate jump:")
    for lv, r, s in rows:
        bar = "#" * int(r / 12)
        print(f"  {lv*1e3:5.0f} mV | {r:7.1f} Hz {bar}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(5, 4))
        lv = [r[0] for r in rows]
        rate = [r[1] for r in rows]
        ax.plot(np.asarray(lv) * 1e3, rate, "o-")
        ax.set_xlabel("input level (mV)")
        ax.set_ylabel("firing rate (Hz)")
        ax.set_title("class II: discontinuous F-I relation")
        fig.tight_layout()
        fig.savefig(os.path.join(OUT, "fi_curve.png"), dpi=120)
        print(f"wrote {OUT}/fi_curve.png")
    except Exception:
        print("matplotlib unavailable; CSV written, skipping the figure")


if __name__ == "__main__":
    main()
