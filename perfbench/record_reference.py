"""Record the gate's reference outputs for the default seeds from the checkout's rfneuron.

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter outputs beyond the gate's
tolerance.  Every seed must pass the invariants before it is recorded.
"""

from __future__ import annotations

import json
import os
import shutil

from checkout import WORK
from gate import REFERENCE
from workloads import WORKLOADS

SEEDS = range(10)


def main() -> None:
    reference = {}
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for wl in WORKLOADS.values():
            for seed in SEEDS:
                inputs = wl.inputs(seed, workdir)
                outdir = workdir / "out"
                shutil.rmtree(outdir, ignore_errors=True)
                outdir.mkdir()
                outputs = [thunk() for _, thunk in wl.steps(inputs, outdir)]
                summary = wl.summarize(inputs, outputs, outdir)
                bad = {unit: why for unit, why in wl.check(inputs, summary).items() if why}
                if bad:
                    raise SystemExit(f"{wl.name} seed {seed} fails its invariants: {bad}")
                reference.setdefault(wl.name, {})[str(seed)] = summary
                print(f"{wl.name} seed {seed}: {len(summary)} units recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
