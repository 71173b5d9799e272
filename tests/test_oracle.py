"""Exact guessing-chance enumeration: worked values and the laws behind them.

The distance law and its iff, the kernel chance, the stick value, the
hash-pinning rule, and the product inequality are each pinned here on
small instances where complete enumeration is undeniable.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hkbound import exprs, oracle
from hkbound.bits import BitString
from hkbound.exprs import BoxPlus, Concat, Hash, KernelMask, Lit, Negate, Proj, Var
from hkbound.hkfun import Block, PartitionedFunction, ResponseToken
from hkbound.oracle import (
    BudgetExceededError,
    GuardSpec,
    GuessScenario,
    advantage,
    analytic,
    binomial_identity_check,
    chance,
    check_prob_guard,
    check_subbayes,
    flow_independent,
    guess_chance,
    guess_fx_from_fz,
    output_distribution,
    per_bit_independent,
    uniform_halves,
)


def lit(value: int, bits: int) -> Lit:
    return Lit(format(value, f"0{bits}b"))


# --- basic machine --------------------------------------------------------


def test_blind_guess_of_a_variable():
    for n in (1, 2, 5):
        assert chance({"u": n}, [], [Var("u")]) == Fraction(1, 2**n)


def test_known_target_is_certain():
    u = Var("u")
    assert chance({"u": 3}, [u], [u]) == 1
    assert chance({"u": 3}, [u], [Negate(u)]) == 1
    assert chance({"u": 4}, [Proj(u, 1, 2), Proj(u, 3, 4)], [u]) == 1


def test_mapping_and_pair_declarations_agree():
    u, v = Var("u"), Var("v")
    a = chance({"u": 2, "v": 1}, [u], [v])
    b = chance((("u", 2), ("v", 1)), [u], [v])
    assert a == b == Fraction(1, 2)


def test_irrelevant_knowledge_gives_no_advantage():
    scenario = GuessScenario((("u", 2), ("v", 2)), (Var("v"),), (Var("u"),))
    assert flow_independent(scenario)
    assert advantage(scenario) == 0


def test_more_knowledge_never_hurts():
    rng = random.Random(14)
    for _ in range(40):
        decls, xi, gamma, theta = oracle.random_subbayes_case(rng)
        base = GuessScenario(decls, xi, theta)
        more = GuessScenario(decls, xi + gamma, theta)
        assert guess_chance(more) >= guess_chance(base)
        assert advantage(more) >= 0


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError) as err:
        chance({"u": 30}, [], [Var("u")], budget=24)
    assert err.value.required_bits == 30
    # unused variables cost nothing
    assert chance({"u": 2, "w": 100}, [], [Var("u")], budget=24) == Fraction(1, 4)


def test_budget_does_not_change_small_answers():
    u, v = Var("u"), Var("v")
    args = ({"u": 2, "v": 2}, [BoxPlus(v, Concat((u, v)))], [u])
    assert chance(*args, budget=24) == chance(*args, budget=12)


# --- the distance law and its iff -----------------------------------------


def uniform_single_blocks():
    """All 1-bit blocks on two seed bits whose both columns are balanced."""
    out = []
    for col0 in itertools.combinations(range(4), 2):
        for col1 in itertools.combinations(range(4), 2):
            table = tuple(
                (int(r in col0), int(r in col1)) for r in range(4)
            )
            out.append(Block(1, 1, 2, table))
    return out


def distance_law_holds(f: PartitionedFunction) -> bool:
    ell = f.in_bits
    for xv in range(1 << ell):
        for zv in range(1 << ell):
            x, z = BitString(ell, xv), BitString(ell, zv)
            delta = (xv ^ zv).bit_count()
            if guess_fx_from_fz(f, x, z) != Fraction(1, 2**delta):
                return False
    return True


def test_distance_law_iff_per_bit_independence_single_blocks():
    blocks = uniform_single_blocks()
    assert len(blocks) == 36
    seen_both = set()
    for b in blocks:
        f = PartitionedFunction((b,))
        assert uniform_halves(f)
        independent = per_bit_independent(f)
        assert distance_law_holds(f) == independent
        seen_both.add(independent)
    assert seen_both == {True, False}  # the corpus exercises both sides


def test_distance_law_iff_on_two_block_composites():
    rng = random.Random(2)
    blocks = uniform_single_blocks()
    for _ in range(60):
        f = PartitionedFunction((rng.choice(blocks), rng.choice(blocks)))
        assert distance_law_holds(f) == per_bit_independent(f)


def test_distribution_tools():
    seeded = Block(1, 1, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    f = PartitionedFunction((seeded,))
    dist = output_distribution(f, BitString(1, 0))
    assert sum(dist.values()) == 1
    assert dist[BitString(1, 0)] == Fraction(1, 2)
    assert uniform_halves(f) and per_bit_independent(f)

    constant = PartitionedFunction((Block(1, 1, 1, ((0, 0), (0, 0))),))
    assert not uniform_halves(constant)

    pinned = PartitionedFunction((Block(1, 1, 1, ((0, 0), (1, 1))),))
    assert uniform_halves(pinned) and not per_bit_independent(pinned)
    # halves always equal: seeing f(z) hands over f(x) for any x
    assert guess_fx_from_fz(pinned, BitString(1, 1), BitString(1, 0)) == 1

    wide = PartitionedFunction((Block(2, 1, 0, ((0, 1, 1, 0),)),))
    with pytest.raises(ValueError):
        per_bit_independent(wide)
    with pytest.raises(ValueError):
        uniform_halves(wide)


def test_hamming_chance_expression_form():
    # the expression oracle agrees with the table view of the same law
    h = Var("h")
    for ell in (1, 2):
        for xv in range(1 << ell):
            for zv in range(1 << ell):
                p = chance(
                    {"h": 2 * ell},
                    [lit(xv, ell), lit(zv, ell), BoxPlus(lit(zv, ell), h)],
                    [BoxPlus(lit(xv, ell), h)],
                )
                assert p == Fraction(1, 2 ** (xv ^ zv).bit_count())


# --- kernel and stick values -----------------------------------------------


def test_kernel_chance_exhaustive():
    x = Var("x")
    for hv in range(16):
        token = ResponseToken.from_bits(BitString(4, hv))
        kappa = token.kernel().bit_count()
        p = chance({"x": 2}, [lit(hv, 4)], [BoxPlus(x, lit(hv, 4))])
        assert p == Fraction(2**kappa, 4)
        assert p == analytic("kernel", kappa=kappa, ell=2)


def test_stick_value_small_ells():
    x, z, h = Var("x"), Var("z"), Var("h")
    for ell in (1, 2, 3):
        p = chance(
            {"x": ell, "z": ell, "h": 2 * ell},
            [x, z, BoxPlus(z, h)],
            [BoxPlus(x, h)],
        )
        assert p == Fraction(3, 4) ** ell
        assert p == analytic("monty", ell=ell)


def test_stick_value_per_fixed_z():
    h = Var("h")
    ell = 2
    for zv in range(4):
        p = chance(
            {"x": ell, "h": 2 * ell},
            [Var("x"), lit(zv, ell), BoxPlus(lit(zv, ell), h)],
            [BoxPlus(Var("x"), h)],
        )
        assert p == Fraction(9, 16)


def test_challenge_alone_is_useless():
    x, h = Var("x"), Var("h")
    assert chance({"x": 2, "h": 4}, [x], [BoxPlus(x, h)]) == Fraction(1, 4)


# --- hash pinning -----------------------------------------------------------


def session_token(ell: int = 1, secret_bits: int = 2):
    s, a, b = Var("s"), Var("a"), Var("b")
    return (s, a, b), Hash(Concat((s, a, b)), 2 * ell)


def test_full_knowledge_pins_the_hash():
    (s, a, b), h = session_token()
    decls = {"s": 2, "a": 1, "b": 1}
    assert chance(decls, [s, a, b], [h]) == 1
    # without the secret the argument stays open: no entry gets pinned,
    # and naming any fixed output wins with the blind 1/4
    assert chance(decls, [a, b], [h]) == Fraction(1, 4)


def test_blind_hash_guess():
    (_, _, _), h = session_token()
    assert chance({"s": 2, "a": 1, "b": 1}, [], [h]) == Fraction(1, 4)


def test_distinct_arguments_are_independent_entries():
    a = Var("a")
    assert chance({"a": 1}, [Hash(a, 1)], [Hash(Negate(a), 1)]) == Fraction(1, 2)


def test_colliding_arguments_share_one_entry():
    # a = b reads one table entry, a != b two: leaves of unequal depth,
    # weighed over one denominator
    a, b = Var("a"), Var("b")
    assert chance({"a": 1, "b": 1}, [], [Hash(a, 1), Hash(b, 1)]) == Fraction(3, 8)


def test_pinning_chains_through_nested_hashes():
    a = Var("a")
    inner = Hash(a, 2)
    outer = Hash(inner, 2)
    assert chance({"a": 1}, [a], [inner, outer]) == 1


def test_response_chances_around_the_session_token():
    (s, a, b), h = session_token()
    x, z = Var("x"), Var("z")
    decls = {"s": 2, "a": 1, "b": 1, "x": 1, "z": 1}
    target = [BoxPlus(x, h)]
    blind = Fraction(1, 2)
    assert chance(decls, [], target) == blind
    assert chance(decls, [x, z], target) == blind
    # the kernel-masked challenge closes the gap that x fills off-kernel
    assert chance(decls, [a, b, s, KernelMask(x, h)], target) == 1
    zh = BoxPlus(z, h)
    for extras in ((), (z,), (zh,), (z, zh)):
        assert chance(decls, [a, b, s, x, *extras], target) == 1


def test_restricted_guesser_needs_a_computable_answer():
    # cold guessing: the free guesser names a constant, the computing
    # guesser has nothing to emit
    sc = GuessScenario((("x", 1),), (), (Var("x"),))
    assert guess_chance(sc) == Fraction(1, 2)
    assert guess_chance(sc, derivable_only=True) == 0

    # echoing an observation back is computable, so the modes agree
    echo = GuessScenario((("x", 2),), (Var("x"),), (Var("x"),))
    assert guess_chance(echo, derivable_only=True) == 1
    u = Var("u")
    assert chance({"u": 5}, [u], [u], derivable_only=True) == 1


def test_restricted_guesser_agrees_when_the_optimum_is_computable():
    z, h = Var("z"), Var("h")
    built = chance({"z": 1, "h": 2}, [z, h], [BoxPlus(z, h)], derivable_only=True)
    assert built == 1

    # response from the bare token: the best answer is whichever half is
    # likelier, and halves are slices, hence computable
    for ell in (1, 3):
        sc = GuessScenario((("x", ell), ("h", 2 * ell)), (h,), (BoxPlus(Var("x"), h),))
        assert guess_chance(sc) == Fraction(3, 4) ** ell
        assert guess_chance(sc, derivable_only=True) == Fraction(3, 4) ** ell

    # slicing and concatenating u builds the target, however many values
    # of the target's width there are
    u = Var("u")
    target = Concat(tuple(Proj(u, 2, 2) for _ in range(6)))
    assert chance({"u": 5}, [u], [target], derivable_only=True) == 1


def test_restricted_guesser_uses_pinned_table_entries():
    s = Var("s")
    h = Hash(s, 2)
    sc = GuessScenario((("s", 2),), (s,), (h,))
    assert guess_chance(sc) == 1
    assert guess_chance(sc, derivable_only=True) == 1

    # never above the free guesser on assorted scenarios
    rng = random.Random(7)
    for _ in range(8):
        decls, xi, gamma, theta = oracle.random_subbayes_case(rng, max_total_bits=6)
        free = chance(decls, xi + gamma, theta)
        restricted = chance(decls, xi + gamma, theta, derivable_only=True)
        assert restricted <= free


def reference_chance(decls, knowns, targets) -> Fraction:
    """Brute force over every declared variable, with its own argmax."""
    joint: dict = {}
    for values in itertools.product(*(range(1 << b) for _, b in decls)):
        env = {n: (b, v) for (n, b), v in zip(decls, values)}
        seen = tuple(exprs.evaluate(e, env, {}) for e in knowns)
        answer = tuple(exprs.evaluate(e, env, {}) for e in targets)
        joint[seen, answer] = joint.get((seen, answer), 0) + 1
    best: dict = {}
    for (seen, _), count in joint.items():
        best[seen] = max(best.get(seen, 0), count)
    return Fraction(sum(best.values()), 2 ** sum(b for _, b in decls))


def test_engine_matches_a_reference_enumerator():
    rng = random.Random(7)
    for _ in range(200):
        decls, xi, gamma, theta = oracle.random_subbayes_case(rng)
        assert chance(decls, xi, gamma) == reference_chance(decls, xi, gamma)
        assert chance(decls, xi + gamma, theta) == reference_chance(decls, xi + gamma, theta)


# --- product inequality ------------------------------------------------------


def test_product_inequality_on_random_scenarios():
    rng = random.Random(5)
    for _ in range(15):
        decls, xi, gamma, theta = oracle.random_subbayes_case(rng)
        rep = check_subbayes(decls, xi, gamma, theta)
        assert rep.holds, (decls, xi, gamma, theta)
        assert rep.lhs == rep.lhs_first * rep.lhs_second


def test_product_equality_on_a_disjoint_case():
    rep = check_subbayes(
        (("u", 1), ("v", 1)), (), (Var("u"),), (Var("v"),)
    )
    assert rep.disjoint and rep.independent and rep.holds and rep.equality
    assert rep.rhs == Fraction(1, 4)


def test_disjoint_from_xi_does_not_force_equality():
    # theta is v1 when v3 = 1 and 1 when v3 = 0; it shares v1 with gamma
    v1, v3 = Var("v1"), Var("v3")
    rep = check_subbayes(
        (("v1", 1), ("v3", 1)), (), (Negate(v1),),
        (BoxPlus(Negate(v3), Concat((v1, Lit("1")))),),
    )
    assert rep.disjoint and not rep.independent
    assert (rep.lhs_first, rep.lhs_second) == (Fraction(1, 2), Fraction(3, 4))
    assert rep.lhs == Fraction(3, 8) < rep.rhs == Fraction(1, 2)


def test_shared_hash_table_does_not_force_equality():
    # no shared variable, but b1 = a0 or b1 = a1 reuses a table entry
    rep = check_subbayes(
        (("a0", 1), ("a1", 1), ("b1", 1)), (),
        (Hash(Var("a0"), 1), Hash(Var("a1"), 1)), (Hash(Var("b1"), 1),),
    )
    assert rep.disjoint and not rep.independent
    assert (rep.lhs_first, rep.lhs_second) == (Fraction(3, 8), Fraction(3, 4))
    assert rep.lhs == Fraction(9, 32) < rep.rhs == Fraction(5, 16)


def test_product_inequality_overlapping_case():
    # context and targets share a variable: no equality promise, but the
    # inequality itself still holds
    u = Var("u")
    rep = check_subbayes(
        (("u", 2),), (Proj(u, 1, 1),), (Proj(u, 2, 2),), (u,)
    )
    assert not rep.disjoint
    assert rep.holds


# --- guard checking ----------------------------------------------------------


def test_prob_guard_covered():
    u = Var("u")
    spec = GuardSpec((("u", 1),), (u,), u, ((u,),))
    report = check_prob_guard(spec)
    assert report.ok and report.baseline == Fraction(1, 2)
    full = next(r for r in report.rows if r.subset == (0,))
    assert not full.exempt and full.rhs == 1 and full.witness == 0
    empty = next(r for r in report.rows if r.subset == ())
    assert empty.exempt


def test_prob_guard_violated():
    # guarding u behind an unrelated coin w cannot cover knowing u itself
    u, w = Var("u"), Var("w")
    spec = GuardSpec((("u", 1), ("w", 1)), (u,), u, ((w,),))
    report = check_prob_guard(spec)
    assert not report.ok
    bad = next(r for r in report.rows if not r.ok)
    assert bad.lhs == 1 and bad.rhs == Fraction(1, 2)


def test_guard_spec_json_roundtrip():
    # hash nodes compare by identity (each is its own oracle), so the
    # roundtrip is checked up to rendering
    spec = oracle.builtin_guard_spec("attack-run")
    again = GuardSpec.from_json(spec.to_json())
    assert again.variables == spec.variables
    assert exprs.render(again.target) == exprs.render(spec.target)
    assert [
        [exprs.render(g) for g in group] for group in again.guards
    ] == [[exprs.render(g) for g in group] for group in spec.guards]
    assert check_prob_guard(again).ok
    with pytest.raises(ValueError):
        oracle.builtin_guard_spec("no-such-spec")


# --- closed forms -------------------------------------------------------------


def test_binomial_identity_range():
    for ell in range(21):
        lhs, rhs, equal = binomial_identity_check(ell)
        assert equal and lhs == rhs == Fraction(3, 2) ** ell
    with pytest.raises(ValueError):
        binomial_identity_check(-1)


def test_analytic_claims():
    assert analytic("hamming", delta=3) == Fraction(1, 8)
    assert analytic("naive", ell=4) == Fraction(1, 16)
    assert analytic("early", ell=2) == Fraction(9, 16)
    with pytest.raises(ValueError):
        analytic("kernel", kappa=5, ell=4)
    with pytest.raises(ValueError):
        analytic("no-such-claim")
    with pytest.raises(ValueError):
        analytic("monty")  # ell missing
