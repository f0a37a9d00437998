"""Fresh-interpreter set-up of one workload: import rfneuron, generate inputs, warm up.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

``run.py`` times this script end to end as the workload's ``setup_s``.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, warm_up

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[workload].inputs(seed, workdir)
    warm_up()
