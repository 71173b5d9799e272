"""The traced benchmark wraps package names from outside (bench/layers.py).

Renaming or deleting one of them in src/ breaks the benchmark; this
catches it in the unit suite, without running the benchmark.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import spans  # noqa: E402

from hkbound import adversary, exprs, harness, oracle  # noqa: E402


def test_every_traced_name_exists_and_is_restored():
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
    finally:
        assert tracer.restore()
    assert {"exprs.evaluate", "harness.analytic_acceptance", "hkfun.extract_token",
            "oracle.guess_chance", "symbolic.derive_closure"} <= set(tracer.names)
    assert oracle.evaluate is exprs.evaluate
    assert not hasattr(harness.analytic_acceptance, "__wrapped__")
    assert not hasattr(adversary.extract_token, "__wrapped__")
