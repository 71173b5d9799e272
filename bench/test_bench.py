"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The traced runs make this take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (puts src/ on the path)
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced_twice(request):
    name = request.param
    return name, [_result(_bench(name, trace=1))["metrics"] for _ in range(2)]


def test_benchmark_json_mirrors_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.METRICS]


def test_tail_keeps_ten_units_beyond_it():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tail_counts_each_unit_once():
    # 30 units over three passes: unit i takes i, i + 0.1 and i + 0.2 s.
    passes = [run.Pass([], [100.0 * i for i in range(30)], [i + k for i in range(30)], set(), 0.0,
                       [(100.0 * i, speed.PROBE_S) for i in range(30)])
              for k in (0.0, 0.1, 0.2)]
    got = run.timings(passes, scaled=True)
    assert got["unit_samples"] == 30
    assert got["unit_tail_ms"] == pytest.approx(19.1e3)
    assert sum(i + 0.1 > 19.1 for i in range(30)) == 10
    assert got["unit_p50_ms"] == pytest.approx(14.6e3)
    assert got["wall_s"] == pytest.approx(sum(range(30)) + 3.0)


def test_count_metrics_repeat_between_traced_runs(traced_twice):
    _name, (first, second) = traced_twice
    assert set(first) == {m[0] for m in layers.METRICS}
    counted = [k for k, v in first.items() if v["unit"] in ("count", "ratio")]
    assert "exprs.evaluate.need_hash" in counted and "oracle.guess_chance.env_rows" in counted
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}


def test_traced_run_shows_the_layer_split(traced_twice):
    name, (metrics, _) = traced_twice
    value = {k: v["value"] for k, v in metrics.items()}
    if name == "montecarlo":
        assert value["protocol.run_session.calls"] > 0
        for layer in ("oracle", "exprs", "symbolic"):
            assert value[f"{layer}.self_s"] == 0
            assert all(v == 0 for k, v in value.items() if k.startswith(layer + ".") and k.endswith(".calls"))
    elif name == "exact":
        assert value["exprs.evaluate.calls"] > 0 and value["exprs.evaluate.need_hash"] == 0
        for layer in ("protocol", "adversary", "symbolic"):
            assert value[f"{layer}.self_s"] == 0
            assert all(v == 0 for k, v in value.items() if k.startswith(layer + ".") and k.endswith(".calls"))
    else:
        assert value["symbolic.self_s"] > 0
        assert value["oracle.guess_chance.hash_self_s"] > 0
        assert value["protocol.run_session.recorded_self_s"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _result(_bench("montecarlo", trace=0))["metrics"]
    assert list(metrics) == [m[0] for m in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("montecarlo", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
