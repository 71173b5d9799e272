"""Deduction closures, algebraic guards, and knowledge contexts over runs."""

import collections
import itertools
import json
import time
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from hkbound import symbolic
from hkbound.adversary import CounterReuseExtract, PreQueryStick, attack_session
from hkbound.oracle import context_subsets
from hkbound.protocol import Event, ProtocolConfig, run_session
from hkbound.symbolic import (
    CR,
    DH,
    DOLEV_YAO,
    HK,
    PAIRING,
    THEORIES,
    AlgGuardSpec,
    Closure,
    Term,
    Theory,
    app,
    atom,
    builtin_alg_guard_spec,
    check_alg_guard,
    check_guard_deterministic,
    derivable,
    derive_closure,
    parse,
    term_context,
    _synthesizer,
)


def test_parse_render_roundtrip():
    for text in ("x", "pair(x,y)", "exp(exp(g,x),y)", "boxplus(neg(z),h)"):
        assert parse(text).render() == parse(parse(text).render()).render()
    with pytest.raises(ValueError):
        parse("pair(x,")
    with pytest.raises(ValueError):
        parse("pair(x,y) extra")


def test_parse_reads_a_dot_chain_as_right_nested_pairs():
    s, a, b = atom("s"), atom("a"), atom("b")
    assert parse("H(s.a.b)") == app("H", app("pair", s, app("pair", a, b)))
    assert parse("pair(s,a).b") == app("pair", app("pair", s, a), b)
    for text in ("s.", ".s", "s..a", "H(s.)"):
        with pytest.raises(ValueError):
            parse(text)


def test_pairing_projections():
    a, b = atom("a"), atom("b")
    pab = app("pair", a, b)
    assert PAIRING.normalize(app("p1", pab)) == a
    assert PAIRING.normalize(app("p2", pab)) == b
    # and inside the closure: both components fall out of a pair
    closure = derive_closure([pab], PAIRING)
    assert a in closure.terms and b in closure.terms
    assert derivable([a, b], pab, PAIRING)


def test_dolev_yao_decryption():
    m, k = atom("m"), atom("k")
    enc = app("senc", m, k)
    assert DOLEV_YAO.normalize(app("sdec", enc, k)) == m
    assert derivable([enc, k], m, DOLEV_YAO)
    assert not derivable([enc], m, DOLEV_YAO)


def test_dh_exponent_normalization():
    g, x, y = atom("g"), atom("x"), atom("y")
    one = DH.normalize(app("exp", app("exp", g, x), y))
    other = DH.normalize(app("exp", app("exp", g, y), x))
    assert one == other  # exponents flatten and sort


def test_dh_derivations():
    g, x, y = atom("g"), atom("x"), atom("y")
    gx, gy = app("exp", g, x), app("exp", g, y)
    shared = app("exp", gx, y)
    assert derivable([x, gy], shared, DH)
    assert derivable([y, gx], shared, DH)
    # without a private exponent the closure never reaches it
    closure = derive_closure([gx, gy], DH)
    assert DH.normalize(shared) not in closure.terms
    assert not derivable([gx, gy], shared, DH)


def test_dh_shared_key_is_decided_underivable():
    g, x, y = atom("g"), atom("x"), atom("y")
    closure = derive_closure([app("exp", g, x), app("exp", g, y)], DH)
    # the closure is complete, so the shared key's absence is a fact
    assert closure.saturated
    assert not derivable(closure.terms, app("exp", app("exp", g, x), y), DH)


def test_small_closures_saturate():
    closure = derive_closure([atom("a")], PAIRING)
    assert closure.saturated


def test_hk_token_extraction_rule():
    z, h = atom("z"), atom("h")
    r0 = app("boxplus", z, h)
    r1 = app("boxplus", app("neg", z), h)
    # the answers to z and neg(z) pin h only for whoever knows z: from
    # the answers alone the exact chance of h is (3/4)^l
    assert derivable([z, r0, r1], h, HK)
    assert not derivable([r0, r1], h, HK)
    assert not derivable([z, r0], h, HK)
    # double negation folds, so the flipped-first order works too
    assert derivable([z, r1, app("boxplus", app("neg", app("neg", z)), h)], h, HK)
    # a derivable challenge need not be held as such
    assert derivable([app("pair", z, z), r0, r1], h, HK)


# --- the reference: budgeted saturation ----------------------------------------


def _interleave(streams: list) -> Iterable[Term]:
    """Round-robin over candidate streams so no operator starves another."""
    live = [iter(s) for s in streams]
    while live:
        nxt = []
        for it in live:
            try:
                yield next(it)
            except StopIteration:
                continue
            nxt.append(it)
        live = nxt


def saturate(
    start: Iterable[Term],
    theory: Theory,
    depth: int = 6,
    size_cap: int = 64,
    max_terms: int = 2400,
    goal: Term | None = None,
) -> Closure:
    """Saturate under the theory's operators and rules, within budget.

    Candidates are drawn smallest-first and the operators take turns, so
    short natural derivations are found long before the budget bites and
    the outcome never depends on hash ordering.  With a goal given,
    stops as soon as the goal appears; the returned closure is then
    partial but contains the goal.  Every term it returns is derivable,
    so the decision procedure must say so of each.
    """
    current: set = {theory.normalize(t) for t in start}
    if goal is not None and goal in current:
        return Closure(frozenset(current), False)
    saturated = True
    for _ in range(depth):
        ordered = sorted(current, key=lambda t: (t.nodes(), t.render()))

        def op_stream(op: str, arity: int) -> Iterable[Term]:
            return (Term(op, combo) for combo in itertools.product(ordered, repeat=arity))

        streams = [op_stream(op, arity) for op, arity in theory.ops]
        known = frozenset(current)
        for rule in theory.rules:
            streams.append(iter(sorted(rule(known, _synthesizer(known, theory)),
                                       key=lambda t: (t.nodes(), t.render()))))
        fresh: set = set()
        found = False
        stopped = False
        for cand in _interleave(streams):
            t = theory.normalize(cand)
            if t.nodes() > size_cap or t in current or t in fresh:
                continue
            fresh.add(t)
            if goal is not None and t == goal:
                found = True
                break
            if len(current) + len(fresh) >= max_terms:
                stopped = True
                break
        current |= fresh
        if found:
            return Closure(frozenset(current), False)
        if stopped:
            saturated = False
            break
        if not fresh:
            break
    return Closure(frozenset(current), saturated)


def operators_of(theory: Theory) -> tuple:
    """The theory's operators, an opaque ``f``, the non-appliable ``rVP``
    and three-argument ``exp``, and the malformed ``pair`` of one argument."""
    return theory.ops + (("f", 1), ("rVP", 1), ("exp", 3), ("pair", 1))


def applications(theory: Theory, t: Term) -> list:
    """The applications analysis and synthesis build over ``t``: most are root redexes."""
    return [*symbolic._pairing_destruct(t), *theory.destruct(t), *theory.compose(t)]


def built_terms_of(theory: Theory, redexes: bool = False):
    """Terms over a few atoms, atom ``neg`` among them, and ``operators_of(theory)``,
    as built.  With ``redexes``, a node may be one of its ``applications`` instead."""
    def extend(children):
        applied = st.sampled_from(operators_of(theory)).flatmap(
            lambda op: st.tuples(*[children] * op[1]).map(lambda args, name=op[0]: Term(name, args)))
        if not redexes:
            return applied
        return st.one_of(applied, applied.flatmap(lambda t: st.sampled_from(applications(theory, t) or [t])))

    leaves = st.sampled_from(("a", "b", "k", "sVP", "neg")).map(atom)
    return st.recursive(leaves, extend, max_leaves=6)


def terms_of(theory: Theory):
    """Normal-form terms: the normal forms of ``built_terms_of(theory)``."""
    return built_terms_of(theory).map(theory.normalize)


def subterms(t: Term) -> set:
    return {t}.union(*(subterms(a) for a in t.args))


ALL_THEORIES = pytest.mark.parametrize("theory", list(THEORIES.values()), ids=list(THEORIES))


@ALL_THEORIES
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decision_reaches_every_term_the_saturation_reaches(theory, data):
    start = data.draw(st.lists(terms_of(theory), min_size=1, max_size=3))
    goal = data.draw(terms_of(theory))
    reached = set(saturate(start, theory, depth=2, max_terms=300).terms)
    if goal in saturate(start, theory, depth=2, max_terms=300, goal=goal).terms:
        reached.add(goal)
    assert [t for t in reached if not derivable(start, t, theory)] == []


@ALL_THEORIES
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_destruct_and_compose_are_operator_applications(theory, data):
    for t in subterms(data.draw(terms_of(theory))):
        for application in itertools.chain(symbolic._pairing_destruct(t), theory.destruct(t)):
            # analysis only takes terms apart, so its fixpoint is finite
            assert (application.op, len(application.args)) in theory.ops
            assert t in application.args
            assert theory.normalize(application) in subterms(t) - {t}
            assert theory.rewrite(application) == theory.normalize(application)
        for application in theory.compose(t):
            assert (application.op, len(application.args)) in theory.ops
            assert theory.normalize(application) == t


def renormalize(theory: Theory, t: Term) -> Term:
    """The reference normal form: every root step's result normalized again whole."""
    cur = Term(t.op, tuple(renormalize(theory, a) for a in t.args))
    while True:
        nxt = symbolic._pairing_step(cur)
        if nxt is None:
            nxt = theory.step(cur)
        if nxt is None:
            return cur
        cur = renormalize(theory, nxt)


@ALL_THEORIES
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_normalize_agrees_with_renormalizing_every_root_step(theory, data):
    t = data.draw(built_terms_of(theory, redexes=True))
    assert theory.normalize(t) == renormalize(theory, t)


@ALL_THEORIES
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_root_step_over_normal_arguments_gives_normal_arguments(theory, data):
    # the contract that lets ``normalize`` rewrite each node at its root alone
    op, arity = data.draw(st.sampled_from(operators_of(theory)))
    built = Term(op, tuple(data.draw(terms_of(theory)) for _ in range(arity)))
    t = data.draw(st.sampled_from([built, *applications(theory, data.draw(terms_of(theory)))]))
    while (nxt := symbolic._pairing_step(t) or theory.step(t)) is not None:
        assert [a for a in nxt.args if theory.normalize(a) != a] == [], (t, nxt)
        t = nxt
    assert theory.normalize(t) == t


@ALL_THEORIES
def test_every_theory_has_pairing(theory):
    a, b = atom("a"), atom("b")
    assert {("pair", 2), ("p1", 1), ("p2", 1)} <= set(theory.ops)
    assert theory.normalize(app("p2", app("pair", a, b))) == b
    assert derivable([app("pair", a, b)], a, theory)


@ALL_THEORIES
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_nothing_is_derivable_from_nothing(theory, data):
    # no theory has a nullary operator and every term has an atom at a
    # leaf, so every guard check has baseline 0
    assert not derivable([], data.draw(terms_of(theory)), theory)


def test_derivations_past_the_old_search_budget():
    # the budgeted saturation misses both at its default caps
    start = [parse("p2(b)"), parse("pair(pair(b,k),pair(g,b))"), atom("g")]
    assert derivable(start, parse("p2(p2(k))"), PAIRING)
    start = [atom("b"), parse("sdec(p2(k),a)"), parse("pair(pair(a,k),b)")]
    assert derivable(start, parse("sdec(a,pair(k,b))"), DOLEV_YAO)


def test_operators_of_the_wrong_arity_stay_stuck():
    a = atom("a")
    assert PAIRING.normalize(app("p2", app("pair", a))) == app("p2", app("pair", a))
    assert not derivable([app("pair", a)], a, PAIRING)
    assert not derivable([app("neg", atom("neg"))], a, HK)


# --- algebraic guards --------------------------------------------------------


def test_builtin_dh_guard_passes():
    spec = builtin_alg_guard_spec("dh")
    report = check_alg_guard(spec)
    assert report.ok
    assert len(report.rows) == 32
    deriving = [r for r in report.rows if r.lhs == 1]
    assert len(deriving) == 15
    assert all(r.witness is not None for r in deriving)
    with pytest.raises(ValueError):
        builtin_alg_guard_spec("rsa")


def alg_guard_reference(spec: AlgGuardSpec) -> list:
    """The algebraic guard check as its own loop over context subsets:
    (subset, derives the target, witness, ok) per subset."""
    rows = []
    for picks in context_subsets(len(spec.context)):
        subset = tuple(spec.context[i] for i in picks)
        if not derivable(subset, spec.target, spec.theory):
            rows.append((picks, False, None, True))
            continue
        witness = None
        for gi, guard in enumerate(spec.guards):
            if all(derivable(subset, g, spec.theory) for g in guard):
                witness = gi
                break
        rows.append((picks, True, witness, witness is not None))
    return rows


@ALL_THEORIES
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_alg_guard_matches_the_subset_loop(theory, data):
    terms = terms_of(theory)
    context = data.draw(st.lists(terms, min_size=1, max_size=4))
    # draw target and guards from the context's subterms too, so that
    # some subsets derive them
    pool = st.one_of(terms, st.sampled_from(sorted({u for t in context for u in subterms(t)}, key=str)))
    spec = AlgGuardSpec(theory, tuple(context), data.draw(pool),
                        tuple(map(tuple, data.draw(st.lists(st.lists(pool, max_size=2), max_size=3)))))
    report = check_alg_guard(spec)
    want = alg_guard_reference(spec)
    assert [(r.subset, r.lhs == 1, r.witness, r.ok) for r in report.rows] == want
    assert report.ok == all(ok for *_, ok in want)
    assert report.baseline == 0 and all(r.lhs in (0, 1) for r in report.rows)


def test_alg_guard_analyses_each_known_set_once(monkeypatch):
    calls = []
    closure = symbolic.derive_closure
    monkeypatch.setattr(symbolic, "derive_closure", lambda start, theory: calls.append(start) or closure(start, theory))
    report = check_alg_guard(builtin_alg_guard_spec("dh"))
    assert report.ok and len(report.rows) == 32
    # the guards are context terms, so every known set is a context subset
    assert len(calls) <= 32


def test_alg_guard_takes_a_deep_pair_chain_apart_within_a_second():
    # a destructor application is rewritten at its root alone, so the
    # analysis of a d-deep chain costs about d**2, not d**3
    a = atom("a")
    chain = a
    for _ in range(99):
        chain = app("pair", chain, a)
    start = time.perf_counter()
    assert check_alg_guard(AlgGuardSpec(PAIRING, (chain,), a, ((a,),))).ok
    assert time.perf_counter() - start < 1.0


def test_alg_guard_violation_detected():
    g, x, y = atom("g"), atom("x"), atom("y")
    gx, gy = app("exp", g, x), app("exp", g, y)
    bad = AlgGuardSpec(
        theory=DH,
        context=(g, x, y, gx, gy),
        target=app("exp", gx, y),
        guards=((app("pair", x, y),),),  # never floats around on its own
    )
    report = check_alg_guard(bad)
    assert not report.ok


def test_collapsed_guard_agrees_with_algebraic():
    spec = builtin_alg_guard_spec("dh")
    report = check_guard_deterministic(spec)
    assert report.ok
    assert report.agrees_with_algebraic
    assert report.baseline == 0
    exempt = [r for r in report.rows if r.exempt]
    covered = [r for r in report.rows if not r.exempt]
    assert covered and exempt
    assert all(r.lhs in (0, 1) for r in report.rows)


def test_alg_guard_spec_json():
    spec = AlgGuardSpec.from_json(
        {
            "theory": "dh",
            "context": ["g", "x", "exp(g,y)"],
            "target": "exp(exp(g,y),x)",
            "guards": [["x", "exp(g,y)"]],
        }
    )
    assert check_alg_guard(spec).ok


def test_challenge_response_rule():
    x = atom("x")
    challenge, secret = app("cVP", x), atom("sVP")
    response = app("rVP", x)
    assert CR.normalize(app("respond", challenge, secret)) == response
    # junk applications stay stuck rather than producing a response
    stuck = app("respond", challenge, challenge)
    assert CR.normalize(stuck) == stuck

    assert derivable([challenge, secret], response, CR)
    assert not derivable([challenge], response, CR)
    assert not derivable([secret, atom("n")], response, CR)
    # holding the bare nonce and the secret also suffices: tagging it as
    # a challenge is public
    assert derivable([x, secret], response, CR)


def test_builtin_cr_guard_passes():
    spec = builtin_alg_guard_spec("cr")
    report = check_alg_guard(spec)
    assert report.ok
    deriving = [r for r in report.rows if r.lhs == 1]
    assert {r.subset for r in deriving} == {(0, 1), (0, 1, 2)}
    assert all(r.witness == 0 for r in deriving)
    collapsed = check_guard_deterministic(spec)
    assert collapsed.ok and collapsed.agrees_with_algebraic
    assert collapsed.baseline == 0


# --- knowledge contexts over recorded runs ------------------------------------


def test_honest_run_never_leaks_the_token():
    cfg = ProtocolConfig(ell=4)
    transcript, verdict = run_session(cfg, "ctx-honest")
    assert verdict.accepted
    ctx = term_context(transcript.events, [])
    verifier = ctx.of("verifier")
    assert parse("a") in verifier and parse("b") in verifier
    # responses to distinct challenge atoms never pair up into the token
    assert not derivable(verifier, atom("h"), HK)


def test_counter_reuse_context_order():
    cfg = ProtocolConfig(ell=4, enforce_counter_freshness=False)
    transcript, verdict = attack_session(cfg, CounterReuseExtract(), "ctx-reuse")
    assert verdict.accepted
    events = transcript.events

    full = term_context(events, [])
    assert derivable(full.of("adversary"), atom("h"), HK)

    # before the second pre-phase response lands, the token is out of reach
    second = [e for e in events if e.name == "pre_response" and e.kind == "receive"][1]
    early = term_context(events, [second])
    assert early.cut_tick == second.tick
    assert not derivable(early.of("adversary"), atom("h"), HK)
    # an equal copy of the event cuts the log at the same tick
    copied = term_context(events, [Event(*second)])
    assert copied == early and copied.cut_tick == second.tick
    assert not derivable(copied.of("adversary"), atom("h"), HK)


def test_single_prequery_context_stays_short_of_the_token():
    transcript, _ = attack_session(ProtocolConfig(ell=4), PreQueryStick(), "ctx-stick")
    ctx = term_context(transcript.events, [])
    terms = ctx.of("adversary")
    assert parse("boxplus(z1,h)") in terms
    assert not derivable(terms, atom("h"), HK)


def test_context_cut_at_the_given_events_and_initial_knowledge():
    cfg = ProtocolConfig(ell=2)
    transcript, _ = run_session(cfg, "ctx-cut")
    ctx = term_context(
        transcript.events,
        [e for e in transcript.events if e.name == "x1" and e.kind == "send"],
        initial={"prover": ["s"]},
    )
    prover = ctx.of("prover")
    assert parse("s") in prover and parse("a") in prover and parse("b") in prover
    # the cut sits before any timed challenge reached her
    assert parse("x1") not in prover
    assert ctx.of("prover") | ctx.of("verifier") >= prover


def test_term_context_parses_each_label_once(monkeypatch):
    cfg = ProtocolConfig(ell=4, enforce_counter_freshness=False)
    runs = [attack_session(cfg, CounterReuseExtract(), f"memo:{i}")[0].events for i in range(10)]
    parsed = collections.Counter()

    def counted(text):
        parsed[text] += 1
        return parse(text)

    monkeypatch.setattr(symbolic, "parse", counted)
    symbolic._label_term.cache_clear()
    for events in runs:
        term_context(events, [])
        term_context(events, [e for e in events if e.kind == "receive"][-1:])
    assert parsed and max(parsed.values()) == 1
    assert set(parsed) == {e.term for events in runs for e in events
                           if e.term is not None and e.kind in ("receive", "fresh")}


def test_label_memo_is_keyed_by_theory():
    events = [Event(0, "adversary", "fresh", "z", None, None, "neg(neg(z1))")]
    for first, second in ((HK, PAIRING), (PAIRING, HK)):
        symbolic._label_term.cache_clear()
        for theory in (first, second):
            held = term_context(events, [], theory=theory).of("adversary")
            assert held == {theory.normalize(parse("neg(neg(z1))"))}
    assert term_context(events, [], theory=HK).of("adversary") == {atom("z1")}
    assert term_context(events, [], theory=PAIRING).of("adversary") == {parse("neg(neg(z1))")}


def test_term_labels_bypass_the_memo():
    label = app("neg", app("neg", atom("z1")))
    events = [Event(0, "adversary", "fresh", "z", None, None, label)]
    ctx = term_context(events, [], initial={"prover": [label]})
    assert ctx.of("adversary") == ctx.of("prover") == {atom("z1")}
    # a Term label is written as its text, which reads back to the same context
    doc = json.loads(json.dumps(events[0].to_json()))
    assert doc["term"] == "neg(neg(z1))" and parse(doc["term"]) == label
    assert term_context([Event(**doc)], [], initial={"prover": [label]}) == ctx
    with pytest.raises(ValueError):
        parse(["a"])
