"""Set-up probe: the start of a `satmimo run` up to its first job.

Imports satmimo, loads the workload's config and builds its job list, then
prints ``ready <number of jobs>`` and exits. run.py times it from process
start to that line.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import workloads

sys.path.insert(0, str(workloads.SRC))

from satmimo import cli, scenario  # noqa: E402

jobs = workloads.build_jobs(cli, scenario, sys.argv[1], int(sys.argv[2]))
print(f"ready {len(jobs)}", flush=True)
