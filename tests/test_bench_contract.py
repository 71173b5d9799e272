"""The benchmark reaches package names from outside: the traced run wraps
them (bench/layers.py), and every run builds and checks its workloads
through them (bench/workloads.py).

Renaming or deleting one of them in src/, or a field its wrappers read,
breaks the benchmark; this catches it in the unit suite, without running
the benchmark.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from hkbound import adversary, exprs, harness, oracle, symbolic  # noqa: E402
from hkbound.protocol import ProtocolConfig  # noqa: E402


def test_every_traced_name_exists_and_is_restored():
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        # the wrapper reads Closure.terms and Closure.saturated
        symbolic.derive_closure([symbolic.atom("a")], symbolic.PAIRING)
        assert tracer.extra["terms"] == tracer.extra["saturated"] == 1
        # a hash-free query runs through the traced guess_chance
        x, h = exprs.Var("x"), exprs.Var("h")
        early = oracle.chance({"x": 2, "h": 4}, [h], [exprs.BoxPlus(x, h)])
        # Monte Carlo sessions run through the names the tracer wraps
        harness.monte_carlo_range(ProtocolConfig(ell=3), "naive-guess", "m", 0, 2)
        # the collapsed guard check runs through the traced check_alg_guard
        rep = symbolic.check_guard_deterministic(symbolic.builtin_alg_guard_spec("cr"))
    finally:
        assert tracer.restore()
    assert tracer.calls[tracer.names.index("symbolic.check_alg_guard")] == 1
    # once, or the bench's oracle.guess_chance.* metrics read 0
    assert tracer.calls[tracer.names.index("oracle.guess_chance")] == 1
    assert early == oracle.analytic("early", ell=2)
    # and analyses each of the 8 subsets of its 3-term context once
    assert tracer.calls[tracer.names.index("symbolic.derive_closure")] == tracer.extra["saturated"] == 1 + 8
    assert rep.ok and rep.agrees_with_algebraic
    assert tracer.calls[tracer.names.index("protocol.run_session")] == 2
    assert sum(n for key, n in tracer.extra.items() if key.startswith("verdict.")) == 2
    assert {"exprs.evaluate", "harness.analytic_acceptance", "hkfun.extract_token",
            "oracle.guess_chance", "symbolic.derive_closure"} <= set(tracer.names)
    assert oracle.evaluate is exprs.evaluate
    assert not hasattr(harness.analytic_acceptance, "__wrapped__")
    assert not hasattr(adversary.extract_token, "__wrapped__")


def test_one_unit_of_each_kind_holds_its_check():
    # units named alike but for a trailing index do the same work
    for name in workloads.NAMES:
        kinds = {}
        for unit in workloads.build(name, 1).units:
            kinds.setdefault(unit.name.rstrip("0123456789"), unit)
        for unit in kinds.values():
            assert unit.check(unit.run()), unit.name
