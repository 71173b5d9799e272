"""Deduction closures, algebraic guards, and knowledge contexts over runs."""

import pytest

from hkbound.adversary import CounterReuseExtract, PreQueryStick, attack_session
from hkbound.protocol import ProtocolConfig, run_session
from hkbound.symbolic import (
    CR,
    DH,
    DOLEV_YAO,
    HK,
    PAIRING,
    AlgGuardSpec,
    app,
    atom,
    builtin_alg_guard_spec,
    check_alg_guard,
    check_guard_deterministic,
    derivable,
    derive_closure,
    parse,
    term_context,
)


def test_parse_render_roundtrip():
    for text in ("x", "pair(x,y)", "exp(exp(g,x),y)", "boxplus(neg(z),h)"):
        assert parse(text).render() == parse(parse(text).render()).render()
    with pytest.raises(ValueError):
        parse("pair(x,")
    with pytest.raises(ValueError):
        parse("pair(x,y) extra")


def test_pairing_projections():
    a, b = atom("a"), atom("b")
    pab = app("pair", a, b)
    assert PAIRING.normalize(app("p1", pab)) == a
    assert PAIRING.normalize(app("p2", pab)) == b
    # and inside the closure: both components fall out of a pair
    closure = derive_closure([pab], PAIRING, depth=2)
    assert a in closure.terms and b in closure.terms
    assert derivable([a, b], pab, PAIRING)


def test_dolev_yao_decryption():
    m, k = atom("m"), atom("k")
    enc = app("senc", m, k)
    assert DOLEV_YAO.normalize(app("sdec", enc, k)) == m
    assert derivable([enc, k], m, DOLEV_YAO)
    assert not derivable([enc], m, DOLEV_YAO, depth=3)


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
    # without a private exponent the budgeted closure never reaches it
    closure = derive_closure([gx, gy], DH, goal=DH.normalize(shared))
    assert DH.normalize(shared) not in closure.terms
    assert not derivable([gx, gy], shared, DH)


def test_budget_relative_nonderivability_is_reported():
    g, x, y = atom("g"), atom("x"), atom("y")
    closure = derive_closure([app("exp", g, x), app("exp", g, y)], DH)
    # the search stopped on budget, so absence is only budget-relative
    assert not closure.saturated


def test_small_closures_saturate():
    closure = derive_closure([atom("a")], PAIRING, depth=3, max_terms=10_000, size_cap=5)
    assert closure.saturated


def test_hk_token_extraction_rule():
    z, h = atom("z"), atom("h")
    r0 = app("boxplus", z, h)
    r1 = app("boxplus", app("neg", z), h)
    assert derivable([r0, r1], h, HK)
    assert not derivable([r0], h, HK, depth=3)
    # double negation folds, so the flipped-first order works too
    assert derivable([r1, app("boxplus", app("neg", app("neg", z)), h)], h, HK, depth=3)


def test_goal_short_circuit_contains_goal():
    a, b = atom("a"), atom("b")
    goal = app("pair", a, b)
    closure = derive_closure([a, b], PAIRING, goal=goal)
    assert goal in closure.terms


# --- algebraic guards --------------------------------------------------------


def test_builtin_dh_guard_passes():
    spec = builtin_alg_guard_spec("dh")
    report = check_alg_guard(spec)
    assert report.ok
    assert len(report.rows) == 32
    deriving = [r for r in report.rows if r.derives_target]
    assert len(deriving) == 15
    assert all(r.witness is not None for r in deriving)
    with pytest.raises(ValueError):
        builtin_alg_guard_spec("rsa")


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
    deriving = [r for r in report.rows if r.derives_target]
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


def test_single_prequery_context_stays_short_of_the_token():
    transcript, _ = attack_session(ProtocolConfig(ell=4), PreQueryStick(), "ctx-stick")
    ctx = term_context(transcript.events, [])
    terms = ctx.of("adversary")
    assert parse("boxplus(z1,h)") in terms
    assert not derivable(terms, atom("h"), HK)


def test_context_cut_by_predicate_and_initial_knowledge():
    cfg = ProtocolConfig(ell=2)
    transcript, _ = run_session(cfg, "ctx-cut")
    ctx = term_context(
        transcript.events,
        lambda e: e.name == "x1" and e.kind == "send",
        initial={"prover": ["s"]},
    )
    prover = ctx.of("prover")
    assert parse("s") in prover and parse("a") in prover and parse("b") in prover
    # the cut sits before any timed challenge reached her
    assert parse("x1") not in prover
    assert ctx.union(["prover", "verifier"]) >= prover
