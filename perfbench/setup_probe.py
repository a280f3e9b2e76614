"""Set-up of one workload in a fresh interpreter, then exit.

    python3 perfbench/setup_probe.py WORKLOAD

run.py times this from start to exit: the import of dswave plus the
profiles and parameters the workload's first operation needs.
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]]().build()
