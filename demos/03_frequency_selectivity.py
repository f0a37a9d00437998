#!/usr/bin/env python3
"""Frequency detection: chirp raster and the bias-tuned detection map.

Feed the neuron a pulse-train chirp that climbs 131 -> 262 Hz in thirteen
semitone steps, ten pulses per step.  Pulses near the resonant frequency
add up coherently until V climbs through the comparator threshold; pulses
off resonance cancel themselves out.  The spike raster therefore lights up
only around the resonant band.  Re-biasing the neuron slides that band:
sweeping the bias current (with the threshold tracking it) turns one cell
into a tunable frequency detector, summarized by the tuning map.
"""

import os
from collections import Counter

from rfneuron import CircuitParams, derive_params
from rfneuron.analysis import tuning_map
from rfneuron.cli import write_csv
from rfneuron.experiments import ChirpSetup, run_chirp

OUT = os.path.join(os.path.dirname(__file__), "out", "selectivity")


def main():
    os.makedirs(OUT, exist_ok=True)
    p = CircuitParams()
    f_res = derive_params(p).f_res
    print(f"nominal resonance at the default bias: {f_res:.1f} Hz")

    trace, events, prog = run_chirp(p)
    blocks = prog.freq_blocks
    cnt = Counter(prog.block_index(e.t_req) for e in events)
    print(f"raster: {len(events)} spikes across 13 frequency blocks")
    for j, b in enumerate(blocks):
        bar = "#" * cnt.get(j, 0)
        print(f"  {b.frequency:6.1f} Hz | {bar}")

    setup = ChirpSetup()
    tm = tuning_map(p, setup.bias_levels(), setup.vth_schedule(), prog)
    write_csv(os.path.join(OUT, "tuning_map.csv"), ("bias_A\\freq_Hz", *tm.frequencies),
              ((b, *row) for b, row in zip(tm.bias_levels, tm.counts.tolist())))
    print("\ntuning map (rows = bias current, argmax marked):")
    for i, bias in enumerate(tm.bias_levels):
        det = tm.detected_frequency(i)
        row = "".join(f"{c:3d}" for c in tm.counts[i])
        print(f"  {bias*1e12:6.1f} pA |{row} | detects "
              f"{'-' if det is None else f'{det:.0f} Hz'}")
    print(f"wrote {OUT}/tuning_map.csv")


if __name__ == "__main__":
    main()
