"""hkbound benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
The workloads, and why each was chosen, are described in
``bench/workloads.py``.

With ``--trace 0`` the run makes a fixed number of passes over the
workload's unit list (set by ``--seconds``, so that a run lasted about
that long when the benchmark was defined) and reports:

    setup_s       median of SETUP_PROBES set-ups in fresh interpreters
    wall_s        median over passes of the pass's summed unit times
    unit_p50_ms   median unit latency
    unit_tail_ms  unit latency at the highest percentile that still has
                  ten units beyond it
    peak_rss_mb   peak resident memory of this process

Times are scaled to the speed probe's seconds (see ``bench/speed.py``);
the run-details line beside the result gives them as measured too.  A
unit's latency is the median of its runs over the passes, and the
percentiles count each unit once.

With ``--trace 1`` it runs one untraced pass and one traced pass and
reports the per-layer metrics of ``bench/layers.py`` (self times as
measured, not scaled); the traced pass's spans are written to
``bench/out/``.  Both modes check every unit's output, and require every
pass, the traced one included, to repeat the first pass's outputs
exactly.  The exit code is 0 when every check passed, 1 when one failed,
and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (name, unit, better, bound); mirrored in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("unit_p50_ms", "ms", "lower", 0.25),
    ("unit_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Seconds one pass took when the benchmark was defined, on a 2-vCPU
# x86-64 machine under Python 3.11.  They fix a run's passes from
# --seconds, so that its work, and with it the units its percentiles
# fall on, does not depend on how fast it went.
NOMINAL_PASS_S = {"montecarlo": 1.2, "exact": 7.5, "structural": 12.5}
MIN_PASSES = 3  # so that wall_s and each unit's latency are true medians
SETUP_PROBES = 7
TAIL_BEYOND = 10

# An interval timer interrupts an untraced pass every PROBE_EVERY_S to
# take one speed probe (see speed.py), during units as well as between
# them; a unit's latency excludes the probes taken inside it.  A unit's
# time is scaled by the probes taken during it and within NEAR_S of
# either end.  The machine's speed changes within a pass, and within a
# long unit, so one factor per pass, or probes only between units, do
# not do: see CHANGES.md.
PROBE_EVERY_S = 0.025
NEAR_S = 0.1


@dataclass
class Pass:
    outputs: list
    starts: list[float]  # perf_counter at each unit's start
    latencies: list[float]  # seconds as measured
    failed: set[int]
    wall: float  # seconds as measured, probes excluded
    probes: list[tuple[float, float]]  # (midpoint, seconds)

    @functools.cached_property
    def scales(self) -> list[float]:
        """Per unit, the factor from measured seconds to probe-speed seconds."""
        mids = [m for m, _ in self.probes]
        out = []
        for start, latency in zip(self.starts, self.latencies):
            near = self.probes[bisect.bisect_left(mids, start - NEAR_S):
                               bisect.bisect_right(mids, start + latency + NEAR_S)]
            out.append(speed.scale([seconds for _, seconds in near or self.probes]))
        return out


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def _checked(unit, out) -> bool:
    if isinstance(out, Exception):
        return False
    try:
        return bool(unit.check(out))
    except Exception:  # a malformed output fails its unit
        return False


def run_pass(workload, tracer=None) -> Pass:
    """One closed-loop pass over the unit list.

    An untraced pass takes speed probes from a timer signal; a traced
    pass takes none, so that no probe lands inside a span.
    """
    gc.collect()
    outputs, starts, latencies, failed, probes = [], [], [], set(), []
    if tracer is None:
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: probes.append(speed.timed_probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t_pass = time.perf_counter()
    try:
        for i, unit in enumerate(workload.units):
            run = unit.run
            if tracer is not None:
                tracer.unit = i
                run = tracer.wrap("bench.unit", unit.run)
            n = len(probes)
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # a unit that raises is a failed unit
                out = exc
            t1 = time.perf_counter()
            starts.append(t0)
            # A probe runs whole between two bytecodes, so its midpoint
            # tells whether it ran inside the unit.
            latencies.append(t1 - t0 - sum(d for mid, d in probes[n:] if t0 < mid < t1))
            outputs.append(out)
            if not _checked(unit, out):
                failed.add(i)
        wall = time.perf_counter() - t_pass
    finally:
        if tracer is None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        else:
            tracer.unit = -1
    failed |= workload.pass_check(outputs)
    wall -= sum(d for _, d in probes)
    return Pass(outputs, starts, latencies, failed, wall, probes)


def differing(first: Pass, other: Pass) -> set[int]:
    """Units whose output is not exactly the first pass's."""
    return {i for i, (a, b) in enumerate(zip(first.outputs, other.outputs)) if repr(a) != repr(b)}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest rank with TAIL_BEYOND units above it.

    With too few units for that rule it reports the slowest one.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        rank = len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, measured) seconds of one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    scaled, measured = map(float, done.stdout.split()[-2:])
    return scaled, measured


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(seed: int, load_before) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "seed": seed,
        "load": "closed loop, one client, one process, one thread",
    }


def final_checks(workload, first: Pass) -> tuple[list[str], int]:
    checks = workload.final_checks(first.outputs)
    return [name for name, ok in checks if not ok], len(checks)


def timings(runs: list[Pass], scaled: bool) -> dict:
    """wall_s, unit_p50_ms and unit_tail_ms of a run's passes.

    A pass's wall is the sum of its unit times.  A unit's latency is its
    median over the passes, and the percentiles are taken over units,
    one latency each.
    """
    times = [[t * k for t, k in zip(p.latencies, p.scales)] if scaled else p.latencies
             for p in runs]
    per_unit = [statistics.median(col) for col in zip(*times)]
    tail_s, tail_pct = tail(per_unit)
    return {
        "wall_s": statistics.median(sum(ts) for ts in times),
        "unit_p50_ms": 1e3 * statistics.median(per_unit),
        "unit_tail_ms": 1e3 * tail_s,
        "unit_tail_percentile": tail_pct,
        "unit_samples": len(per_unit),
    }


def measure(workload, seed: int, seconds: int) -> tuple[dict, dict, int, int]:
    setups = [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    runs = [run_pass(workload) for _ in range(passes_for(workload.name, seconds))]
    OUT.mkdir(exist_ok=True)
    (OUT / f"latencies-{workload.name}-seed{seed}.json").write_text(json.dumps(
        {"units": [u.name for u in workload.units], "walls": [p.wall for p in runs],
         "starts": [p.starts for p in runs], "latencies": [p.latencies for p in runs],
         "probes": [p.probes for p in runs]}))
    first = runs[0]
    failed = 0
    for p in runs:
        p.failed |= differing(first, p)
        failed += len(p.failed)
    bad_checks, n_checks = final_checks(workload, first)
    attempted = len(runs) * len(workload.units) + n_checks
    failed += len(bad_checks)

    scaled = timings(runs, scaled=True)
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": scaled["wall_s"],
        "unit_p50_ms": scaled["unit_p50_ms"],
        "unit_tail_ms": scaled["unit_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    walls = [p.wall for p in runs]
    sessions = workload.sessions_per_pass * len(runs)
    detail = {
        "passes": len(runs),
        "units_per_pass": len(workload.units),
        "unit_samples": scaled["unit_samples"],
        "unit_tail_percentile": scaled["unit_tail_percentile"],
        "measured": timings(runs, scaled=False),
        "pass_scales": [statistics.median(p.scales) for p in runs],
        "pass_walls_s": walls,
        "setup_s_measured": [measured for _, measured in setups],
        "sessions": sessions,
        "sessions_per_s": sessions / sum(walls) if sessions else None,
        "fail_ratio": failed / attempted,
        "failed_units": sorted({workload.units[i].name for p in runs for i in p.failed}),
        "failed_checks": bad_checks,
        "findings": workload.findings(first.outputs),
    }
    return values, detail, attempted, failed


def measure_traced(workload, seed: int) -> tuple[dict, dict, int, int]:
    import layers
    from spans import Tracer

    untraced = run_pass(workload)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        traced = run_pass(workload, tracer)
    finally:
        restored = tracer.restore()
    mismatch = differing(untraced, traced)
    failed = len(untraced.failed) + len(traced.failed | mismatch) + (not restored)
    bad_checks, n_checks = final_checks(workload, untraced)
    attempted = 2 * len(workload.units) + n_checks + 1
    failed += len(bad_checks)

    overhead = traced.wall - untraced.wall
    values = layers.per_layer_metrics(tracer, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write_spans(spans_path)
    detail = {
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "wrapped_names_restored": restored,
        "traced_outputs_differ": sorted(workload.units[i].name for i in mismatch),
        "failed_units": sorted({workload.units[i].name for i in untraced.failed | traced.failed}),
        "failed_checks": bad_checks,
        "fail_ratio": failed / attempted,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_stored": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "env_rows_note": "oracle.guess_chance.env_rows is computed as sum of 2^B from each scenario",
    }
    return values, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("montecarlo", "exact", "structural"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "hkbound" / "__init__.py").is_file():
        print(f"error: no hkbound package under {src}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    import workloads
    import hkbound

    if not Path(hkbound.__file__).resolve().is_relative_to(src):
        print(f"error: imported hkbound from {hkbound.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    main_setup_s = time.perf_counter() - t0

    if args.trace:
        import layers

        values, detail, attempted, failed = measure_traced(workload, args.seed)
        units = {name: unit for name, unit, _better in layers.METRICS}
    else:
        values, detail, attempted, failed = measure(workload, args.seed, args.seconds)
        units = {name: unit for name, unit, _better, _bound in END_TO_END}

    detail = {"workload": workload.name, "trace": args.trace, "main_setup_s": main_setup_s,
              "inputs": workload.inputs, **detail, "context": run_context(args.seed, load_before)}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
