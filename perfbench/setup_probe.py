"""Set-up probe: a fresh interpreter imports bmgon and numpy, builds one
workload's inputs and prints their digest.  run.py times it from spawn
to exit; that time is the benchmark's setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import workloads

if __name__ == "__main__":
    ops = workloads.build_ops(sys.argv[1], int(sys.argv[2]))
    print(workloads.inputs_digest(ops))
