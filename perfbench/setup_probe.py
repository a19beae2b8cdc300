"""Set-up probe: one fresh interpreter from launch to a constructed runner.

Imports the program, generates the workload's scenarios, builds the
``SimulationRunner`` of the first one (validation, registry publishing,
device stacks, bridging) and prints the CLOCK_MONOTONIC time in nanoseconds
at which the runner stood. ``run.py`` subtracts the time it launched the
interpreter.
"""
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orchestrion.scenario import SimulationRunner  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    SimulationRunner(WORKLOADS[workload](seed)[0])
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
