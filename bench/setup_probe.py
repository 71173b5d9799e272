"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing hkbound and building the workload's inputs, as a
command-line user pays it on every call.  Prints the seconds it took,
scaled to the speed probe's seconds (see speed.py), then the seconds as
measured.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import speed

PROBES = 8

before = [speed.timed_probe()[1] for _ in range(PROBES)]
t0 = time.perf_counter()
import workloads  # noqa: E402  (imports hkbound)

workloads.build(sys.argv[1], int(sys.argv[2]))
measured = time.perf_counter() - t0
after = [speed.timed_probe()[1] for _ in range(PROBES)]
print(measured * speed.scale(before + after), measured)
