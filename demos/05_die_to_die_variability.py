#!/usr/bin/env python3
"""Monte-Carlo die-to-die variability of the four ringdown metrics.

Subthreshold circuits amplify process variation: a few millivolts of
threshold mismatch multiply straight into the branch currents.  Sampling a
population of virtual dies (threshold mismatch on the two exponential
branches, capacitor and bias-current spread, and a wide spread on the
loop-gain residue) reproduces the measured hierarchy: baselines barely
move, the resonant frequency wanders by ~15%, and the quality factor is
all over the map.
"""

import dataclasses
import os

from rfneuron import CircuitParams
from rfneuron.cli import write_csv, write_json
from rfneuron.experiments import RingdownSetup
from rfneuron.montecarlo import METRIC_NAMES, MismatchModel, run_population

OUT = os.path.join(os.path.dirname(__file__), "out", "montecarlo")
N_DIES = 40  # demo-sized population; the full characterization uses 100


def main():
    os.makedirs(OUT, exist_ok=True)
    base = CircuitParams()
    setup = dataclasses.replace(RingdownSetup(), amplitude=0.4)
    stats = run_population(base, MismatchModel(), N_DIES, setup)
    write_json(os.path.join(OUT, "population.json"), {
        "n_dies": stats.n_dies, "n_resampled": stats.n_resampled, "metrics": stats.stats,
    })
    write_csv(os.path.join(OUT, "dies.csv"), ("die", *METRIC_NAMES, "flags"),
              ((i, *(getattr(rec, m) for m in METRIC_NAMES), ";".join(rec.flags))
               for i, rec in enumerate(stats.records)))

    print(f"{N_DIES} dies, {stats.n_resampled} rejected draws resampled")
    print(f"{'metric':14s} {'mean':>12s} {'CV %':>8s} {'defined':>8s}")
    for name in METRIC_NAMES:
        s = stats.stats[name]
        print(f"{name:14s} {s['mean']:12.6g} {s['cv_percent']:8.2f} "
              f"{s['n_defined']:8d}")
    cvs = [stats.cv_percent(m) for m in ("baseline_U", "f_res", "q_factor")]
    print(f"\nvariability hierarchy: baseline {cvs[0]:.1f}% "
          f"< frequency {cvs[1]:.1f}% < Q {cvs[2]:.1f}%")
    print(f"wrote {OUT}/population.json and {OUT}/dies.csv")


if __name__ == "__main__":
    main()
