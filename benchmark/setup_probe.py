"""Fresh-interpreter set-up of one workload, the span that ``setup_s`` times.

Usage: python3 benchmark/setup_probe.py <workload>

Imports the package, loads the benchmark config and builds the workload's
inputs, then exits.  ``run.py`` starts it with ``src`` on PYTHONPATH and reads
its CPU time from the child's resource usage.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build_inputs(sys.argv[1])
