"""The attack catalog against its exact acceptance chances.

Each bundled strategy has either a closed form or a cheap policy-level
enumeration; the simulator must land on those values, and the stick
policy must be provably optimal among single-round deterministic rules.
"""

from fractions import Fraction

import pytest

from hkbound.exprs import BoxPlus, Var
from hkbound.oracle import chance
from hkbound.protocol import ProtocolConfig, CounterStore
from hkbound.adversary import (
    CounterReuseExtract,
    EarlyResponder,
    NaiveGuess,
    PreQueryStick,
    SecretGuesser,
    StrategyInfeasibleError,
    attack_session,
    exact_acceptance,
    make_strategy,
    stick_policy_search,
)
from hkbound.harness import analytic_acceptance, monte_carlo


def cfg_at(ell: int, **kw) -> ProtocolConfig:
    return ProtocolConfig(ell=ell, **kw)


def test_exact_acceptances_match_closed_forms():
    assert exact_acceptance("naive-guess", cfg_at(2)) == Fraction(1, 4)
    assert exact_acceptance("prequery-stick", cfg_at(2)) == Fraction(9, 16)
    assert exact_acceptance("early-full", cfg_at(2)) == Fraction(9, 16)
    assert exact_acceptance("early-kernel", cfg_at(2)) == 1
    assert exact_acceptance(
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
    # no closed form, so the policy-level enumeration answers
    assert analytic_acceptance("early-kernel", cfg_at(4)) == 1
    with pytest.raises(ValueError):
        cfg_at(0)


def test_enumeration_equals_closed_form_up_to_ell_3():
    for ell in (1, 2, 3):
        for name, per_bit in PER_BIT.items():
            assert exact_acceptance(name, cfg_at(ell)) == per_bit**ell


def test_simulated_rates_sit_on_the_exact_values():
    trials = 3000
    for name, ell in (("naive-guess", 2), ("prequery-stick", 2), ("early-full", 3)):
        est = monte_carlo(cfg_at(ell), name, trials, f"cal-{name}")
        assert est.analytic == PER_BIT[name] ** ell
        assert est.calibrated(z=5.0)


def test_stick_policy_is_optimal():
    for z in (0, 1):
        best, stick, worlds = stick_policy_search(z)
        assert (best, stick, worlds) == (6, 6, 8)
    # 6 wins out of 8 worlds is the (3/4) per-round value
    assert Fraction(6, 8) == Fraction(3, 4)


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


def test_counter_reuse_requires_freshness_off():
    with pytest.raises(StrategyInfeasibleError):
        attack_session(cfg_at(4), CounterReuseExtract(), 0)
    with pytest.raises(StrategyInfeasibleError):
        exact_acceptance("counter-reuse", cfg_at(4))

    relaxed = cfg_at(4, enforce_counter_freshness=False)
    assert exact_acceptance("counter-reuse", relaxed) == 1
    for seed in range(20):
        _, verdict = attack_session(relaxed, CounterReuseExtract(), seed)
        assert verdict.accepted


def test_early_kernel_always_accepted_and_closer():
    cfg = cfg_at(8, rtt_mode="mean")
    honest_distance = 3.0
    shrunk = 0
    for seed in range(30):
        _, verdict = attack_session(cfg, EarlyResponder("kernel"), seed)
        assert verdict.accepted
        zeros = sum(1 for r in verdict.per_bit_rtt if r == 0)
        assert verdict.estimated_distance == honest_distance * (1 - zeros / 8)
        shrunk += verdict.estimated_distance < honest_distance
    assert shrunk > 20  # only an all-distinct-halves token fails to shrink


def test_early_full_sends_the_first_half_blind():
    cfg = cfg_at(6, rtt_mode="mean")
    _, verdict = attack_session(cfg, EarlyResponder("full"), 17)
    assert verdict.per_bit_rtt == (0,) * 6
    assert verdict.estimated_distance == 0.0
    # acceptance now rides on the challenge bits alone
    accepted = sum(
        attack_session(cfg, EarlyResponder("full"), s)[1].accepted for s in range(200)
    )
    assert 0 < accepted < 200


def test_early_responder_mode_validation():
    with pytest.raises(ValueError):
        EarlyResponder("sideways")


def test_secret_guesser_with_tiny_secret():
    cfg = cfg_at(2, secret_bits=1)
    expected = exact_acceptance("secret-guess", cfg)
    assert expected == Fraction(1, 2) + Fraction(1, 2) * Fraction(1, 4)
    est = monte_carlo(cfg, SecretGuesser(), 2000, "sg")
    assert est.analytic == expected
    assert est.calibrated(z=5.0)


def test_make_strategy_names():
    assert isinstance(make_strategy("naive-guess"), NaiveGuess)
    assert make_strategy("early-kernel").mode == "kernel"
    assert make_strategy("early-full").mode == "full"
    assert make_strategy("early", early_mode="full").mode == "full"
    assert make_strategy("prequery-stick", pre_queries=4).pre_queries == 4
    with pytest.raises(ValueError):
        make_strategy("replay-everything")


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
