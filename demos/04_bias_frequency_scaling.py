#!/usr/bin/env python3
"""Resonant frequency scales linearly with the bias current.

The oscillation rate of the core is set by how fast the bias currents can
slew the two capacitors, so the angular frequency is proportional to the
bias: 250x more current, 250x higher pitch.  Here we sweep two and a half
decades of bias, extract each point's ringdown frequency with a
small-signal pulse, and fit a line through the measurements -- the
analytic prediction runs straight through them.
"""

import os

import numpy as np

from rfneuron import CircuitParams
from rfneuron.cli import write_csv
from rfneuron.experiments import SweepSetup, linear_fit, run_bias_sweep

OUT = os.path.join(os.path.dirname(__file__), "out", "sweep")


def main():
    os.makedirs(OUT, exist_ok=True)
    rows = run_bias_sweep(CircuitParams(), SweepSetup())
    header = ("I_A", "f_res_Hz", "f_analytic_Hz")
    write_csv(os.path.join(OUT, "sweep.csv"), header, ([r[k] for k in header] for r in rows))

    print("bias current -> measured / analytic resonance")
    for r in rows:
        print(f"  {r['I_A']*1e12:8.1f} pA   {r['f_res_Hz']:8.2f} Hz "
              f"/ {r['f_analytic_Hz']:8.2f} Hz")
    I = np.asarray([r["I_A"] for r in rows])
    f = np.asarray([r["f_res_Hz"] for r in rows])
    fit = linear_fit(I, f)
    print(f"\nleast squares: f = {fit['slope_Hz_per_A']:.4g} Hz/A * I "
          f"+ {fit['intercept_Hz']:.3g} Hz,  R^2 = {fit['r_squared']:.6f}")
    print(f"wrote {OUT}/sweep.csv")


if __name__ == "__main__":
    main()
