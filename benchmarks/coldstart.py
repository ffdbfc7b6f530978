"""
One cold set-up of a workload, for the set-up time: import dqes, load the
input file, build the MUB sets the workload needs, then print `ready`.
run.py starts it with the single-thread environment it set for itself.

    python3 benchmarks/coldstart.py <workload> <input.json>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports dqes)

workloads.WORKLOADS[sys.argv[1]].setup(sys.argv[2])
print("ready", flush=True)
