"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  A metric ``<module>.<name>.calls`` or
``.self_s`` comes from the spans of one wrapped name;
``<module>.self_s`` sums the self time of every wrapped name in that
module, and ``bench.self_s`` is the benchmark's own code inside units.
Ratios are 0 when their base is 0.
"""

from __future__ import annotations

from hkbound import adversary, bits, cli, exprs, harness, hkfun, oracle, protocol, symbolic

LAYERS = ("harness", "protocol", "bits", "hkfun", "adversary", "exprs", "oracle", "symbolic", "cli")

# (name, unit, better); the order is the order of BENCHMARK.json.
METRICS = (
    ("harness.trial_seed.calls", "count", "lower"),
    ("harness.trial_seed.self_s", "s", "lower"),
    ("harness.monte_carlo_range.self_s", "s", "lower"),
    ("harness.analytic_acceptance.self_s", "s", "lower"),
    ("protocol.run_session.calls", "count", "lower"),
    ("protocol.run_session.self_s", "s", "lower"),
    ("protocol.run_session.recorded_self_s", "s", "lower"),
    ("protocol.RandomOracle.query.calls", "count", "lower"),
    ("protocol.RandomOracle.query.self_s", "s", "lower"),
    ("protocol.RandomOracle.query.hit_ratio", "ratio", "higher"),
    ("protocol.verifier_decide.self_s", "s", "lower"),
    ("protocol.CounterStore.check_and_mark.calls", "count", "lower"),
    ("protocol.events_per_session", "count", "lower"),
    ("protocol.verdict.ok", "count", "higher"),
    ("protocol.verdict.wrong_bits", "count", "lower"),
    ("protocol.verdict.too_far", "count", "lower"),
    ("protocol.verdict.counter_reused", "count", "lower"),
    ("bits.sample_uniform.calls", "count", "lower"),
    ("bits.sample_uniform.self_s", "s", "lower"),
    ("bits.concat.calls", "count", "lower"),
    ("bits.concat.self_s", "s", "lower"),
    ("bits.BitString.check.calls", "count", "lower"),
    ("bits.BitString.check.self_s", "s", "lower"),
    ("hkfun.ResponseToken.from_bits.calls", "count", "lower"),
    ("hkfun.ResponseToken.from_bits.self_s", "s", "lower"),
    ("hkfun.extract_token.calls", "count", "lower"),
    ("adversary.attack_session.calls", "count", "lower"),
    ("adversary.setup.calls", "count", "lower"),
    ("adversary.setup.self_s", "s", "lower"),
    ("adversary.play.calls", "count", "lower"),
    ("adversary.play.self_s", "s", "lower"),
    ("adversary.infeasible.count", "count", "lower"),
    ("exprs.evaluate.calls", "count", "lower"),
    ("exprs.evaluate.self_s", "s", "lower"),
    ("exprs.evaluate.need_hash", "count", "lower"),
    ("exprs.evaluate.completed_ratio", "ratio", "higher"),
    ("oracle.guess_chance.calls", "count", "lower"),
    ("oracle.guess_chance.self_s", "s", "lower"),
    ("oracle.guess_chance.hash_calls", "count", "lower"),
    ("oracle.guess_chance.hash_self_s", "s", "lower"),
    ("oracle.guess_chance.env_rows", "count", "lower"),
    ("oracle.check_prob_guard.self_s", "s", "lower"),
    ("oracle.check_subbayes.self_s", "s", "lower"),
    ("symbolic.derive_closure.calls", "count", "lower"),
    ("symbolic.derive_closure.self_s", "s", "lower"),
    ("symbolic.derive_closure.terms", "count", "lower"),
    ("symbolic.derive_closure.saturated_ratio", "ratio", "higher"),
    ("symbolic.derivable.calls", "count", "lower"),
    ("symbolic.check_alg_guard.self_s", "s", "lower"),
    ("symbolic.check_guard_deterministic.self_s", "s", "lower"),
    ("symbolic.term_context.calls", "count", "lower"),
    ("symbolic.term_context.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def instrument(tracer) -> None:
    """Wrap every traced name; counters beyond calls land in tracer.extra."""
    extra = tracer.extra

    def session_done(args, kwargs, outcome, own, _token):
        if not isinstance(outcome, tuple):
            return
        transcript, verdict = outcome
        extra["sessions"] += 1
        extra["events"] += len(transcript.events)
        extra[f"verdict.{verdict.reason}"] += 1
        if kwargs.get("record", True):  # every caller passes record by keyword
            extra["recorded_self_s"] += own

    for owner in (protocol, harness, adversary):
        tracer.patch(owner, "run_session", "protocol.run_session", after=session_done)
    tracer.patch(harness, "trial_seed", "harness.trial_seed")
    tracer.patch(harness, "monte_carlo_range", "harness.monte_carlo_range")
    tracer.patch(harness, "analytic_acceptance", "harness.analytic_acceptance")

    def query_done(args, kwargs, outcome, own, size_before):
        extra["oracle_hits"] += len(args[0]) == size_before

    tracer.patch(protocol.RandomOracle, "query", "protocol.RandomOracle.query",
                 after=query_done, before=lambda args, kwargs: len(args[0]))
    tracer.patch(protocol, "verifier_decide", "protocol.verifier_decide")
    tracer.patch(protocol.CounterStore, "check_and_mark", "protocol.CounterStore.check_and_mark")

    for owner in (protocol, adversary):
        tracer.patch(owner, "sample_uniform", "bits.sample_uniform")
    for owner in (protocol, adversary, hkfun):
        tracer.patch(owner, "concat", "bits.concat")
    tracer.patch(bits.BitString, "__post_init__", "bits.BitString.check")
    tracer.patch(hkfun.ResponseToken, "from_bits", "hkfun.ResponseToken.from_bits")
    tracer.patch(adversary, "extract_token", "hkfun.extract_token")

    tracer.patch(adversary, "attack_session", "adversary.attack_session")

    def setup_done(args, kwargs, outcome, own, _token):
        extra["infeasible"] += isinstance(outcome, adversary.StrategyInfeasibleError)

    for cls in adversary.STRATEGIES.values():
        tracer.patch(cls, "setup", "adversary.setup", after=setup_done)
        tracer.patch(cls, "play", "adversary.play")

    def evaluate_done(args, kwargs, outcome, own, _token):
        extra["need_hash"] += isinstance(outcome, exprs.NeedHash)

    tracer.patch(oracle, "evaluate", "exprs.evaluate", after=evaluate_done)

    def chance_done(args, kwargs, outcome, own, _token):
        scenario = args[0]
        shown = scenario.knowns + scenario.targets
        used: set[str] = set()
        for e in shown:
            used |= exprs.free_vars(e)
        extra["env_rows"] += 1 << sum(b for n, b in scenario.variables if n in used)
        if any(exprs.hash_nodes(e) for e in shown):
            extra["hash_calls"] += 1
            extra["hash_self_s"] += own

    tracer.patch(oracle, "guess_chance", "oracle.guess_chance", after=chance_done)
    tracer.patch(oracle, "check_prob_guard", "oracle.check_prob_guard")
    tracer.patch(oracle, "check_subbayes", "oracle.check_subbayes")

    def closure_done(args, kwargs, outcome, own, _token):
        if isinstance(outcome, symbolic.Closure):
            extra["terms"] += len(outcome.terms)
            extra["saturated"] += outcome.saturated

    tracer.patch(symbolic, "derive_closure", "symbolic.derive_closure", after=closure_done)
    tracer.patch(symbolic, "derivable", "symbolic.derivable")
    tracer.patch(symbolic, "check_alg_guard", "symbolic.check_alg_guard")
    tracer.patch(symbolic, "check_guard_deterministic", "symbolic.check_guard_deterministic")
    tracer.patch(symbolic, "term_context", "symbolic.term_context")

    tracer.patch(cli, "main", "cli.main")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead_s: float) -> dict[str, float]:
    """Every METRICS value from one traced pass."""
    totals = tracer.totals()  # every wrapped name, called or not
    x = tracer.extra
    out: dict[str, float] = {}
    for name, (calls, own) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(s for n, (_c, s) in totals.items() if n.split(".")[0] == layer)
    evaluations = totals["exprs.evaluate"][0]
    out.update({
        "protocol.run_session.recorded_self_s": x["recorded_self_s"],
        "protocol.RandomOracle.query.hit_ratio": _ratio(x["oracle_hits"], totals["protocol.RandomOracle.query"][0]),
        "protocol.events_per_session": _ratio(x["events"], x["sessions"]),
        "adversary.infeasible.count": int(x["infeasible"]),
        "exprs.evaluate.need_hash": int(x["need_hash"]),
        "exprs.evaluate.completed_ratio": _ratio(evaluations - x["need_hash"], evaluations),
        "oracle.guess_chance.hash_calls": int(x["hash_calls"]),
        "oracle.guess_chance.hash_self_s": x["hash_self_s"],
        "oracle.guess_chance.env_rows": int(x["env_rows"]),
        "symbolic.derive_closure.terms": int(x["terms"]),
        "symbolic.derive_closure.saturated_ratio": _ratio(x["saturated"], totals["symbolic.derive_closure"][0]),
        "trace.overhead_s": overhead_s,
    })
    for reason in ("ok", "wrong_bits", "too_far", "counter_reused"):
        out[f"protocol.verdict.{reason}"] = int(x[f"verdict.{reason}"])
    return {name: out[name] for name, _unit, _better in METRICS}
