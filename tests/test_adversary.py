"""The attack catalog against its exact acceptance chances.

Each bundled strategy has an exact value in ``analytic_acceptance``; the
closed forms agree with the exact oracle at small ell, the simulator
must land on those values, and the stick policy must be optimal among
single-round deterministic rules.
"""

import random
from fractions import Fraction

import pytest

from hkbound.exprs import BoxPlus, Lit, Var
from hkbound.hkfun import select
from hkbound.oracle import chance
from hkbound.protocol import CounterStore, ProtocolConfig, Responder, SessionView, session_token
from hkbound.adversary import (
    STRATEGIES,
    CounterReuseExtract,
    EarlyFull,
    EarlyKernel,
    NaiveGuess,
    PreQueryStick,
    SecretGuesser,
    StrategyInfeasibleError,
    _strategy_key,
    attack_session,
    make_strategy,
)
from hkbound.harness import analytic_acceptance, monte_carlo


def cfg_at(ell: int, **kw) -> ProtocolConfig:
    return ProtocolConfig(ell=ell, **kw)


def test_exact_acceptances_match_closed_forms():
    assert analytic_acceptance("naive-guess", cfg_at(2)) == Fraction(1, 4)
    assert analytic_acceptance("prequery-stick", cfg_at(2)) == Fraction(9, 16)
    assert analytic_acceptance("early-full", cfg_at(2)) == Fraction(9, 16)
    assert analytic_acceptance("early-kernel", cfg_at(2)) == 1
    assert analytic_acceptance(
        "secret-guess", cfg_at(3, secret_bits=2)
    ) == Fraction(1, 4) + Fraction(3, 4) * Fraction(1, 8)


# per-bit success chance of each strategy with a closed form: acceptance
# is this chance to the power ell
PER_BIT = {"naive-guess": Fraction(1, 2), "prequery-stick": Fraction(3, 4),
           "early-full": Fraction(3, 4)}


def test_per_bit_success_closed_forms():
    for ell in (1, 2, 5):
        for name, per_bit in PER_BIT.items():
            assert analytic_acceptance(name, cfg_at(ell)) == per_bit**ell
    assert analytic_acceptance("naive-guess", cfg_at(5)) == Fraction(1, 32)
    assert analytic_acceptance("prequery-stick", cfg_at(2)) == Fraction(9, 16)
    assert analytic_acceptance("early-kernel", cfg_at(4)) == 1
    with pytest.raises(ValueError):
        cfg_at(0)


def test_enumeration_equals_closed_form_up_to_ell_3():
    # each strategy's best answer from what it holds, by the exact oracle
    x, z, h = Var("x"), Var("z"), Var("h")
    target = [BoxPlus(x, h)]
    for ell in (1, 2, 3):
        decls = {"x": ell, "z": ell, "h": 2 * ell}
        enumerated = {
            "naive-guess": chance(decls, [], target),
            "prequery-stick": chance(decls, [x, z, BoxPlus(z, h)], target),
            "early-full": chance(decls, [h], target),
        }
        # each strategy's own policy over every (x, h0, h1) world: a fixed
        # answer, the response to a prequeried z = 0, the first half blind
        n = 1 << ell
        policies = {
            "naive-guess": lambda h0, h1: 0,
            "prequery-stick": lambda h0, h1: select(0, h0, h1, ell),
            "early-full": lambda h0, h1: h0,
        }
        for name, per_bit in PER_BIT.items():
            wins = sum(policies[name](h0, h1) == select(xv, h0, h1, ell)
                       for xv in range(n) for h0 in range(n) for h1 in range(n))
            assert enumerated[name] == Fraction(wins, n**3) == per_bit**ell
            assert analytic_acceptance(name, cfg_at(ell)) == per_bit**ell


def test_simulated_rates_sit_on_the_exact_values():
    trials = 3000
    for name, ell in (("naive-guess", 2), ("prequery-stick", 2), ("early-full", 3)):
        est = monte_carlo(cfg_at(ell), name, trials, f"cal-{name}")
        assert est.analytic == PER_BIT[name] ** ell
        assert est.calibrated(z=5.0)


def test_stick_policy_is_optimal():
    # one round: the best of all policies mapping (w, x) to an answer bit,
    # against the stick policy that answers w, over the 8 (x, h0, h1) worlds
    x, h = Var("x"), Var("h")
    for z in (0, 1):
        zl = Lit(str(z))
        best = chance({"x": 1, "h": 2}, [zl, x, BoxPlus(zl, h)], [BoxPlus(x, h)])
        stick = sum(select(z, h0, h1, 1) == select(xv, h0, h1, 1)
                    for xv in (0, 1) for h0 in (0, 1) for h1 in (0, 1))
        assert best == Fraction(stick, 8) == Fraction(3, 4)


def test_extra_prequeries_do_not_help():
    # expression-level: an unrelated token entry adds nothing at ell = 1
    x, z, h, g = Var("x"), Var("z"), Var("h"), Var("g")
    decls = {"x": 1, "z": 1, "h": 2, "g": 2}
    with_extra = chance(decls, [z, BoxPlus(z, h), g], [BoxPlus(x, h)])
    without = chance(decls, [z, BoxPlus(z, h)], [BoxPlus(x, h)])
    assert with_extra == without == Fraction(3, 4)

    # simulator-level: more queries, same acceptance rate
    base = monte_carlo(cfg_at(2), PreQueryStick(1), 2000, "pq")
    more = monte_carlo(cfg_at(2), PreQueryStick(3), 2000, "pq")
    assert base.calibrated(z=5.0) and more.calibrated(z=5.0)
    assert more.analytic == base.analytic == Fraction(9, 16)


def test_prequery_validation():
    with pytest.raises(ValueError):
        PreQueryStick(0)
    # more query pairs than the counter space holds
    cfg = cfg_at(1, counter_bits=1, enforce_counter_freshness=False)
    with pytest.raises(StrategyInfeasibleError):
        attack_session(cfg, PreQueryStick(pre_queries=5), 0)
    # it fails before it asks the prover anything
    store = CounterStore()
    with pytest.raises(StrategyInfeasibleError):
        attack_session(cfg_at(2, counter_bits=1), PreQueryStick(5), 1, prover_store=store)
    assert len(store) == 0


def test_counter_reuse_requires_freshness_off():
    with pytest.raises(StrategyInfeasibleError):
        attack_session(cfg_at(4), CounterReuseExtract(), 0)
    with pytest.raises(StrategyInfeasibleError):
        analytic_acceptance("counter-reuse", cfg_at(4))

    relaxed = cfg_at(4, enforce_counter_freshness=False)
    assert analytic_acceptance("counter-reuse", relaxed) == 1
    for seed in range(20):
        _, verdict = attack_session(relaxed, CounterReuseExtract(), seed)
        assert verdict.accepted


def test_early_kernel_always_accepted_and_closer():
    cfg = cfg_at(8, rtt_mode="mean")
    honest_distance = 3.0
    shrunk = 0
    for seed in range(30):
        _, verdict = attack_session(cfg, EarlyKernel(), seed)
        assert verdict.accepted
        zeros = sum(1 for r in verdict.per_bit_rtt if r == 0)
        assert verdict.estimated_distance == honest_distance * (1 - zeros / 8)
        shrunk += verdict.estimated_distance < honest_distance
    assert shrunk > 20  # only an all-distinct-halves token fails to shrink


def test_early_full_sends_the_first_half_blind():
    cfg = cfg_at(6, rtt_mode="mean")
    _, verdict = attack_session(cfg, EarlyFull(), 17)
    assert verdict.per_bit_rtt == (0,) * 6
    assert verdict.estimated_distance == 0.0
    # acceptance now rides on the challenge bits alone
    accepted = sum(
        attack_session(cfg, EarlyFull(), s)[1].accepted for s in range(200)
    )
    assert 0 < accepted < 200


def test_secret_guesser_with_tiny_secret():
    cfg = cfg_at(2, secret_bits=1)
    expected = analytic_acceptance("secret-guess", cfg)
    assert expected == Fraction(1, 2) + Fraction(1, 2) * Fraction(1, 4)
    est = monte_carlo(cfg, SecretGuesser(), 2000, "sg")
    assert est.analytic == expected
    assert est.calibrated(z=5.0)


def test_make_strategy_names():
    assert isinstance(make_strategy("naive-guess"), NaiveGuess)
    assert isinstance(make_strategy("early-kernel"), EarlyKernel)
    assert isinstance(make_strategy("early-full"), EarlyFull)
    assert make_strategy("prequery-stick", pre_queries=4).pre_queries == 4
    assert make_strategy("honest") is None
    for gone in ("replay-everything", "early"):
        with pytest.raises(ValueError, match="choose from"):
            make_strategy(gone)


def test_every_catalogue_name_round_trips():
    assert len(STRATEGIES) == 6
    for name, cls in STRATEGIES.items():
        assert cls.kind == name
        assert _strategy_key(make_strategy(name)) == _strategy_key(name) == name
    assert _strategy_key(None) == _strategy_key("honest") == "honest"

    class Unnamed(Responder):
        def play(self, view, challenges):
            return 0, 0

    assert _strategy_key(Unnamed()) == "Unnamed"


def test_attack_sessions_are_deterministic():
    cfg = cfg_at(5)
    t1, v1 = attack_session(cfg, "naive-guess", 99)
    t2, v2 = attack_session(cfg, "naive-guess", 99)
    assert v1 == v2 and t1.to_jsonl() == t2.to_jsonl()


def test_strategies_share_verifier_state():
    # a reused seed against the same verifier trips freshness even when
    # the attacker is the one talking
    cfg = cfg_at(4)
    store = CounterStore()
    _, first = attack_session(cfg, "naive-guess", 8, verifier_store=store)
    _, second = attack_session(cfg, "naive-guess", 8, verifier_store=store)
    assert first.reason in ("ok", "wrong_bits")
    assert second.reason == "counter_reused"


# --- what a responder may know, and when: the causality audit ------------------


def causality_faults(strategy: Responder, cfg: ProtocolConfig, seed) -> list[tuple[int, str]]:
    """Where ``strategy`` answers with what its rounds may not know yet.

    A view is built and set up as ``run_session`` builds it, then ``play``
    is replayed from one generator state with challenge bit j flipped,
    for each round j.  A waited round i may read x_1..x_i, and an early
    round reads no challenge: a changed waited bit of a round before j, a
    changed early bit or a changed early mask is a fault (j, what)."""
    ell, w = cfg.ell, cfg.counter_width
    rng = random.Random(seed)
    secret, a, b = rng.getrandbits(cfg.secret_bits), rng.getrandbits(w), rng.getrandbits(w)
    view = SessionView(cfg, rng, seed, a, b, secret, session_token(seed, cfg, secret, a, b), None, None, 0)
    strategy.setup(view)
    challenges = rng.getrandbits(ell)
    state = rng.getstate()
    response, early = strategy.play(view, challenges)
    faults = []
    for j in range(1, ell + 1):
        rng.setstate(state)
        flipped, flipped_early = strategy.play(view, challenges ^ 1 << ell - j)
        before = (1 << ell) - (1 << ell - j + 1)  # rounds 1..j-1, round 1 the most significant bit
        changed = response ^ flipped
        if flipped_early != early:
            faults.append((j, "early mask"))
        if changed & early:
            faults.append((j, "early bit"))
        if changed & before & ~early:
            faults.append((j, "waited bit of an earlier round"))
    return faults


class AnswersRoundOneWithX2(Responder):
    def play(self, view, challenges):
        ell = view.cfg.ell
        return (challenges >> ell - 2 & 1) << ell - 1, 0


class EchoesItsChallengeEarly(Responder):
    def play(self, view, challenges):
        first = 1 << view.cfg.ell - 1  # round 1, sent before its challenge leaves
        return challenges & first, first


@pytest.mark.parametrize("ell", [2, 4, 8])
def test_the_shipped_strategies_read_only_what_their_rounds_know(ell):
    for name, cls in STRATEGIES.items():
        cfg = cfg_at(ell, enforce_counter_freshness=name != "counter-reuse")
        for seed in range(5):
            assert causality_faults(cls(), cfg, f"{name}:{seed}") == [], name


@pytest.mark.parametrize("ell", [2, 4, 8])
def test_the_audit_fails_planted_responders(ell):
    cfg = cfg_at(ell)
    assert (2, "waited bit of an earlier round") in causality_faults(AnswersRoundOneWithX2(), cfg, 1)
    assert (1, "early bit") in causality_faults(EchoesItsChallengeEarly(), cfg, 1)
