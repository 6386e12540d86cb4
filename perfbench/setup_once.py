"""Set one workload up in this fresh interpreter and exit; run.py times it.

    python3 perfbench/setup_once.py <workload> <seed> <workdir>
"""

import sys

import workloads

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:4]
    workloads.WORKLOADS[name](int(seed), workdir)
