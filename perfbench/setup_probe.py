"""One fresh set-up, timed: import ardtk and build a workload's inputs.

    python3 perfbench/setup_probe.py denoise-cross32 0

run.py starts this in a new interpreter for each set-up it times.  It
prints the wall time of the import and the input build, then the same
time corrected for host speed (see hostspeed.py), both in seconds.
"""
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402

# a set-up lasts a fraction of a second, so sample every 10 ms
with hostspeed.SpeedSampler(interval=0.01) as sampler:
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
    wall = perf_counter() - t0
print(wall, sampler.corrected(wall))
