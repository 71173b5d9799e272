"""The machine-speed probe behind the benchmark's time scaling.

This machine's speed wanders: for tens of seconds at a time the same work
takes up to twice as long, because other tenants share the cores.  So the
benchmark times a fixed probe, independent of hkbound, next to the work
it measures, and scales each measured time by PROBE_S over the median
time of the probes taken beside it.  Times are then seconds at the speed
the probe had when the benchmark was defined; the measured seconds are
reported beside them.  The probe's own time is never part of a measured time.

This module imports nothing the package imports, so that timing the
package's import in a fresh interpreter is not shortened by it.
"""

import time

PROBE_S = 0.00107  # fastest probe time on a 2-vCPU x86-64 machine, Python 3.11


def _mix(a: int, b: int) -> int:
    return ((a * 2654435761) ^ (b >> 3)) & 0xFFFFFFFF


def speed_probe() -> int:
    """Fixed dict, tuple, integer and call traffic, like the package's."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, i >> 6)
        acc = _mix(i, acc)
        table[key] = table.get(key, 0) + (acc & 255)
    return acc + len(table)


def timed_probe() -> tuple[float, float]:
    """(midpoint, seconds) of one probe."""
    t0 = time.perf_counter()
    speed_probe()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def scale(probe_seconds: list[float]) -> float:
    """Factor from measured seconds to seconds at the probe's speed."""
    ordered = sorted(probe_seconds)
    n = len(ordered)
    median = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return PROBE_S / median
