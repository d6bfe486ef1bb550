"""One set-up sample: import every mdl module and build a workload's
parameter objects, up to its first experiment call.

    python3 perfbench/setup_probe.py WORKLOAD SEED

from the repository root.  The caller times the whole process, interpreter
start included.  For the cli workload the parameter objects are the parsed
arguments of the first command.  Prints the time taken by ``import mdl.cli``
in seconds.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import mdl.cli  # noqa: E402  (imports the other six modules)

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

if __name__ == "__main__":
    experiments = workloads.build(sys.argv[1], int(sys.argv[2]))
    if sys.argv[1] == "cli":
        mdl.cli.build_parser().parse_args(experiments[0][0].argv)
    print(import_s)
