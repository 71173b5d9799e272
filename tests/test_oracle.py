"""Exact guessing-chance enumeration: worked values and the laws behind them.

The distance law and its iff, the kernel chance, the stick value, the
hash-pinning rule, the one-query values, and the product inequality are
each pinned here on small instances where complete enumeration is
undeniable; the truth-table hash path, colliding classes muxed, is held
to a restart-on-miss enumeration, and the guard checker's one shared
table to chances enumerated query by query.
"""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hkbound import cli, exprs, harness, oracle
from hkbound.bits import BitString
from hkbound.exprs import BoxPlus, Concat, Hash, KernelMask, Lit, Negate, Proj, Var
from hkbound.hkfun import ResponseToken, kernel_mask
from hkbound.oracle import (
    BudgetExceededError,
    GuardSpec,
    GuessScenario,
    analytic,
    binomial_identity_check,
    chance,
    check_prob_guard,
    check_subbayes,
    guess_chance,
)
from hkbound.protocol import ProtocolConfig


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
    assert chance({"u": 5}, [u], [Concat(tuple(Proj(u, 2, 2) for _ in range(6)))]) == 1
    z, h = Var("z"), Var("h")
    assert chance({"z": 1, "h": 2}, [z, h], [BoxPlus(z, h)]) == 1


def test_mapping_and_pair_declarations_agree():
    u, v = Var("u"), Var("v")
    a = chance({"u": 2, "v": 1}, [u], [v])
    b = chance((("u", 2), ("v", 1)), [u], [v])
    assert a == b == Fraction(1, 2)


def test_irrelevant_knowledge_gives_no_advantage():
    decls = (("u", 2), ("v", 2))
    assert chance(decls, (Var("v"),), (Var("u"),)) - chance(decls, (), (Var("u"),)) == 0


def test_more_knowledge_never_hurts():
    rng = random.Random(14)
    for _ in range(40):
        decls, xi, gamma, theta = oracle.random_subbayes_case(rng)
        base = GuessScenario(decls, xi, theta)
        more = GuessScenario(decls, xi + gamma, theta)
        assert guess_chance(more) >= guess_chance(base)
        assert chance(decls, xi + gamma, theta) - chance(decls, (), theta) >= 0


def test_budget_is_enforced():
    # a hash-free query's budget caps its widest component, and u's
    # thirty bits are thirty one-bit components
    u = Var("u")
    assert chance({"u": 30}, [], [u], budget=24) == Fraction(1, 2**30)
    rotated = Concat((Proj(u, 2, 30), Proj(u, 1, 1)))
    chained = BoxPlus(u, Concat((u, rotated)))  # bit i reads u_i and u_(i-1)
    with pytest.raises(BudgetExceededError) as err:
        chance({"u": 30}, [], [chained], budget=24)
    assert err.value.required_bits == 30
    # a hash entry that nothing can collide with is a block of variable
    # bits: here twelve one-bit components beside a's
    assert chance({"a": 1}, [], [Hash(Var("a"), 12)], budget=1) == Fraction(1, 4096)
    assert chance({"a": 1}, [], [Hash(Var("a"), 12)], budget=13) == Fraction(1, 4096)
    # nodes that may collide are muxed: each bit of the second entry reads
    # both arguments and both entries' bits, so a, b and the four entry
    # bits are one component
    pair = [Hash(Var("a"), 2), Hash(Var("b"), 2)]
    with pytest.raises(BudgetExceededError) as err:
        chance({"a": 1, "b": 1}, [], pair, budget=5)
    assert err.value.required_bits == 6
    assert chance({"a": 1, "b": 1}, [], pair, budget=6) == Fraction(5, 32)
    # unused variables cost nothing
    assert chance({"u": 2, "w": 100}, [], [Var("u")], budget=24) == Fraction(1, 4)


def test_a_pass_of_single_positions_needs_a_one_bit_budget():
    # the kernel query: every component is one position of x, and only the
    # position where the token's halves differ counts, yet reading any
    # position takes a 1-bit budget; a pass that reads none takes none
    token = Lit("1011")
    query = ({"x": 2}, [token], [BoxPlus(Var("x"), token)])
    with pytest.raises(BudgetExceededError) as err:
        chance(*query, budget=0)
    assert (err.value.required_bits, err.value.budget) == (1, 0)
    assert chance(*query, budget=1) == Fraction(1, 2)
    assert chance({"x": 2}, [token], [Lit("01")], budget=0) == 1


def test_budget_does_not_change_small_answers():
    u, v = Var("u"), Var("v")
    args = ({"u": 2, "v": 2}, [BoxPlus(v, Concat((u, v)))], [u])
    assert chance(*args, budget=24) == chance(*args, budget=12)


# --- the distance law and its iff -----------------------------------------


def uniform_single_blocks():
    """All 1-bit blocks on two seed bits whose both columns are balanced.

    A block is its table: row r holds the answers (to 0, to 1) under seed r.
    """
    return [
        tuple((int(r in col0), int(r in col1)) for r in range(4))
        for col0 in itertools.combinations(range(4), 2)
        for col1 in itertools.combinations(range(4), 2)
    ]


def seeded_half(s: Var, column) -> exprs.Expr:
    """column[seed] for the 2-bit seed s, as a mux of challenge selections."""
    t = "".join(map(str, column))
    low = Proj(s, 2, 2)
    return BoxPlus(Proj(s, 1, 1), Concat((BoxPlus(low, Lit(t[:2])), BoxPlus(low, Lit(t[2:])))))


def seeded_token(blocks):
    """Declarations and token h0::h1 of the bitwise function whose i-th
    bit follows ``blocks[i]`` under its own 2-bit seed ``s<i>``."""
    seeds = [Var(f"s{i}") for i in range(len(blocks))]
    halves = [seeded_half(s, [row[a] for row in b])
              for a in (0, 1) for s, b in zip(seeds, blocks)]
    return {s.name: 2 for s in seeds}, Concat(tuple(halves))


def per_bit_independent(blocks) -> bool:
    """Whether each block's answers to 0 and to 1 are independent over a
    uniform seed: every joint row count times 4 is the product of the
    marginal counts."""
    for b in blocks:
        joint = Counter(b)
        m0 = Counter(a0 for a0, _ in b)
        m1 = Counter(a1 for _, a1 in b)
        if any(joint[a0, a1] * len(b) != m0[a0] * m1[a1] for a0 in m0 for a1 in m1):
            return False
    return True


def distance_law_holds(blocks) -> bool:
    decls, h = seeded_token(blocks)
    ell = len(blocks)
    for xv in range(1 << ell):
        for zv in range(1 << ell):
            x, z = lit(xv, ell), lit(zv, ell)
            delta = (xv ^ zv).bit_count()
            if chance(decls, [x, z, BoxPlus(z, h)], [BoxPlus(x, h)]) != Fraction(1, 2**delta):
                return False
    return True


def test_seeded_token_reproduces_every_single_block_table():
    # a bitwise table over a seed is challenge selection from a seeded token
    for spec in range(1 << 8):
        block = tuple(((spec >> 2 * r) & 1, (spec >> 2 * r + 1) & 1) for r in range(4))
        _, h = seeded_token([block])
        for sv in range(4):
            for xv in (0, 1):
                got = exprs.evaluate(BoxPlus(lit(xv, 1), h), {"s0": (2, sv)}, {})
                assert got == (1, block[sv][xv])


def test_distance_law_iff_per_bit_independence_single_blocks():
    blocks = uniform_single_blocks()
    assert len(blocks) == 36
    independent = [per_bit_independent([b]) for b in blocks]
    assert sum(independent) == 24  # the corpus exercises both sides
    for b, ind in zip(blocks, independent):
        assert distance_law_holds([b]) == ind


def test_distance_law_iff_on_two_block_composites():
    rng = random.Random(2)
    blocks = uniform_single_blocks()
    for _ in range(60):
        f = [rng.choice(blocks), rng.choice(blocks)]
        assert distance_law_holds(f) == per_bit_independent(f)


def test_distribution_tools():
    # a seed-driven block answers each challenge bit uniformly
    seeded = ((0, 0), (0, 1), (1, 0), (1, 1))
    decls, h = seeded_token([seeded])
    assert chance(decls, [], [BoxPlus(Lit("0"), h)]) == Fraction(1, 2)
    assert per_bit_independent([seeded])
    decls, h = seeded_token([((0, 0),) * 4])
    assert chance(decls, [], [BoxPlus(Lit("0"), h)]) == 1

    # halves always equal: seeing f(z) hands over f(x) for any x
    assert not per_bit_independent([((0, 0), (1, 1), (0, 0), (1, 1))])
    s = Var("s")
    pinned = Concat((s, s))
    assert chance({"s": 1}, [Lit("1"), Lit("0"), BoxPlus(Lit("0"), pinned)],
                  [BoxPlus(Lit("1"), pinned)]) == 1


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
        kappa = kernel_mask(token.h0.value, token.h1.value, 2).bit_count()
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


def test_closed_forms_at_simulation_lengths():
    # per-bit components make these exact far beyond brute force
    x, z, h = Var("x"), Var("z"), Var("h")
    for ell in (8, 32):
        decls = {"x": ell, "z": ell, "h": 2 * ell}
        assert chance(decls, [x, z, BoxPlus(z, h)], [BoxPlus(x, h)]) == analytic("monty", ell=ell)
        assert chance(decls, [h], [BoxPlus(x, h)]) == analytic("early", ell=ell)
    rng = random.Random(32)
    for _ in range(5):
        raw = rng.getrandbits(64)
        token = ResponseToken.from_bits(BitString(64, raw))
        kappa = kernel_mask(token.h0.value, token.h1.value, 32).bit_count()
        got = chance({"x": 32}, [lit(raw, 64)], [BoxPlus(x, lit(raw, 64))])
        assert got == analytic("kernel", kappa=kappa, ell=32)


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
    assert chance({"s": 2}, [s], [Hash(s, 2)]) == 1
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


def test_an_argument_fixed_in_some_groups_only_stays_unpinned():
    # H(v ? s : 00) with v known: v = 0 fixes the argument at 00 and v = 1
    # leaves it open, so the all-groups rule pins nothing and the value is
    # the blind 1/4.  A guesser that evaluates the public hash per group,
    # at H(00) when v = 0, would win (1 + 1/4) / 2 = 5/8: the value does
    # not bound that guesser.
    v, s = Var("v"), Var("s")
    decls = {"v": 1, "s": 2}
    target = Hash(BoxPlus(Concat((v, v)), Concat((Lit("00"), s))), 2)
    assert chance(decls, [v], [target]) == Fraction(1, 4)
    assert restart_chance(list(decls.items()), [v], [target]) == Fraction(1, 4)


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


def walked_width(decls, e) -> int:
    """The width of a term that is not masked: its bit count in the walk
    that checks it."""
    _, reads, _, _ = GuessScenario(tuple(decls), (), (e,))._walk
    return len(reads[0][0])


def pass_over(scenario, budget=oracle.DEFAULT_BUDGET):
    """How a check reads chances over a scenario's terms (``oracle._pass``),
    from the walk the scenario made when it was built: a pass of truth
    tables unless every term is plain or the pass is over the budget."""
    return oracle._pass(scenario.variables, scenario.knowns + scenario.targets, scenario._walk, budget)


def bit_exprs(decls, want: int, depth: int):
    """Hash-free expressions of width ``want`` over ``decls``."""
    options = [st.text("01", min_size=want, max_size=want).map(Lit)]
    options += [st.just(Var(n)) for n, b in decls if b == want]
    if depth:
        def sub(w):
            return bit_exprs(decls, w, depth - 1)

        options.append(sub(want).map(Negate))
        options.append(st.builds(BoxPlus, sub(want), sub(2 * want)))
        options.append(st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
            lambda pad: sub(pad[0] + want + pad[1]).map(
                lambda e: Proj(e, pad[0] + 1, pad[0] + want))))
        if want >= 2:
            options.append(st.integers(1, want - 1).flatmap(
                lambda cut: st.tuples(sub(cut), sub(want - cut)).map(Concat)))
    return st.one_of(options)


@st.composite
def hash_free_scenarios(draw):
    """Declarations, knowns (masked ones included) and targets."""
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    decls = tuple((f"v{i}", b) for i, b in enumerate(widths))
    plain = st.sampled_from(widths).flatmap(lambda w: bit_exprs(decls, w, 2))
    masked = st.sampled_from(widths).flatmap(
        lambda w: st.builds(KernelMask, bit_exprs(decls, w, 1), bit_exprs(decls, 2 * w, 1)))
    knowns = draw(st.lists(st.one_of(plain, masked), max_size=3))
    targets = draw(st.lists(st.one_of(plain, masked), min_size=1, max_size=2))
    return decls, knowns, targets


def test_engine_matches_a_reference_enumerator():
    # the three query shapes of check_subbayes on the corpus
    rng = random.Random(7)
    for _ in range(200):
        decls, xi, gamma, theta = oracle.random_subbayes_case(rng)
        for knowns, targets in ((xi, gamma), (xi + gamma, theta), (xi, gamma + theta)):
            assert chance(decls, knowns, targets) == reference_chance(decls, knowns, targets)
    # masked knowns and targets, and the enumerate claims' scenarios
    x, z, h = Var("x"), Var("z"), Var("h")
    for ell in (1, 2, 3, 4):
        decls = (("x", ell), ("z", ell), ("h", 2 * ell))
        queries = [
            ([x, z, BoxPlus(z, h)], [BoxPlus(x, h)]),  # monty
            ([h], [BoxPlus(x, h)]),  # early
        ]
        if ell <= 3:
            queries += [
                ([KernelMask(x, h)], [BoxPlus(x, h)]),
                ([KernelMask(x, h), z, BoxPlus(z, h)], [BoxPlus(x, h)]),
                ([KernelMask(z, h)], [BoxPlus(x, h), KernelMask(x, h)]),
            ]
        for knowns, targets in queries:
            used = [d for d in decls if any(d[0] in exprs.free_vars(e) for e in knowns + targets)]
            assert chance(decls, knowns, targets) == reference_chance(used, knowns, targets)
        for zv in range(1 << ell):  # prop34: every z, per x and over x
            zl = lit(zv, ell)
            seen = [zl, BoxPlus(zl, h)]
            for xv in range(1 << ell):
                xl = lit(xv, ell)
                query = ([xl, *seen], [BoxPlus(xl, h)])
                assert chance({"h": 2 * ell}, *query) == reference_chance(decls[2:], *query)
            query = ([x, *seen], [BoxPlus(x, h)])
            assert chance(decls, *query) == reference_chance((decls[0], decls[2]), *query)


@settings(max_examples=100, deadline=None)
@given(hash_free_scenarios())
def test_engine_matches_the_reference_on_generated_scenarios(scenario):
    decls, knowns, targets = scenario
    assert chance(decls, knowns, targets) == reference_chance(decls, knowns, targets)


# --- the hash path against its restart reference ------------------------------


def restart_leaves(knowns, targets, env):
    """Every table completion of one environment, found by evaluating all
    expressions and, on each missing entry, branching over its values and
    starting the environment over.  Yields (known_values, target_values,
    argument key per node id, table, extra_bits)."""
    stack = [({}, 0)]
    while stack:
        htable, extra = stack.pop()
        try:
            v = tuple(exprs.evaluate(e, env, htable) for e in knowns)
            w = tuple(exprs.evaluate(e, env, htable) for e in targets)
        except exprs.NeedHash as miss:
            for out in range(1 << miss.out_bits):
                stack.append(({**htable, miss.key: out}, extra + miss.out_bits))
            continue
        argrec = {}
        for e in knowns + targets:
            for n in exprs.hash_nodes(e):
                al, av = exprs.evaluate(n.arg, env, htable)[:2]
                argrec[id(n)] = (al, av, n.out_bits)
        yield v, w, argrec, htable, extra


def restart_pin(leaves, nodes):
    """Observation keys with each node's entry appended, to a fixpoint, once
    the key determines the node's argument in every group."""
    keys = [leaf[0] for leaf in leaves]
    remaining = [id(n) for n in nodes]
    while remaining:
        progressed = False
        for nid in list(remaining):
            groups: dict = {}
            for key, leaf in zip(keys, leaves):
                groups.setdefault(key, set()).add(leaf[2].get(nid))
            if all(len(args) == 1 for args in groups.values()):
                keys = [key + ((leaf[2][nid][2], leaf[3][leaf[2][nid]]),)
                        for key, leaf in zip(keys, leaves)]
                remaining.remove(nid)
                progressed = True
        if not progressed:
            break
    return keys


def restart_chance(decls, knowns, targets, budget=oracle.DEFAULT_BUDGET):
    """The hash path by restarting evaluation on every missing table entry:
    leaves weighed over 2**(B + H), pinned entries, the shared argmax."""
    knowns, targets = tuple(knowns), tuple(targets)
    used = set().union(*(exprs.free_vars(e) for e in knowns + targets))
    var_order = [(n, b) for n, b in decls if n in used]
    nodes = list({id(n): n for e in knowns + targets for n in exprs.hash_nodes(e)}.values())
    total_bits = sum(b for _, b in var_order)
    hash_bits = sum(n.out_bits for n in nodes)
    if total_bits + hash_bits > budget:
        raise BudgetExceededError(total_bits + hash_bits, budget)
    envs = ({n: (b, v) for (n, b), v in zip(var_order, values)}
            for values in itertools.product(*(range(1 << b) for _, b in var_order)))
    leaves = [leaf for env in envs for leaf in restart_leaves(knowns, targets, env)]
    groups: dict = {}
    for key, (_v, w, _argrec, _htable, extra) in zip(restart_pin(leaves, nodes), leaves):
        slot = groups.setdefault(key, {})
        slot[w] = slot.get(w, 0) + (1 << (hash_bits - extra))
    best = sum(max(slot.values()) for slot in groups.values())
    return Fraction(best, 1 << (total_bits + hash_bits))


@st.composite
def hash_scenarios(draw):
    """Declarations, knowns and targets over 1 to 4 hash nodes.  A node may
    hash an earlier node (nested), nodes are drawn with replacement into
    several expressions (shared), a node may be a new node over an earlier
    node's argument (a copy, as JSON parsing makes), small arguments of one
    width often coincide (colliding), and 2n-bit nodes feed BoxPlus and
    KernelMask.  A node, or a nested node's argument, may read a slice of
    a node only.  The first target reads a hash node."""
    widths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    decls = tuple((f"v{i}", b) for i, b in enumerate(widths))
    nodes: list = []
    for _ in range(draw(st.integers(1, 4))):
        if nodes and draw(st.integers(0, 3)) == 0:
            copied = draw(st.sampled_from(nodes))
            nodes.append(Hash(copied.arg, copied.out_bits))
            continue
        w = draw(st.sampled_from(widths))
        arg = draw(bit_exprs(decls, w, 1))
        if nodes and draw(st.booleans()):
            inner = draw(st.sampled_from(nodes))
            arg = draw(st.sampled_from([inner, Concat((arg, inner)), Negate(inner)]
                                       + [Proj(inner, lo, lo) for lo in range(1, inner.out_bits + 1)]))
        nodes.append(Hash(arg, draw(st.sampled_from([w, 2 * w]))))

    def reading(node):
        n = node.out_bits
        options = [st.just(node), st.just(Negate(node)),
                   st.tuples(st.integers(1, n), st.integers(1, n)).map(
                       lambda ends: Proj(node, min(ends), max(ends)))]
        if node.out_bits % 2 == 0:
            x = bit_exprs(decls, node.out_bits // 2, 1)
            options += [x.map(lambda e: BoxPlus(e, node)), x.map(lambda e: KernelMask(e, node))]
        return st.one_of(options)

    hashed = st.sampled_from(nodes).flatmap(reading)
    any_expr = st.one_of(hashed, st.sampled_from(widths).flatmap(lambda w: bit_exprs(decls, w, 1)))
    knowns = draw(st.lists(any_expr, max_size=3))
    targets = [draw(hashed)] + draw(st.lists(any_expr, max_size=1))
    return decls, knowns, targets


def test_hash_path_matches_the_restart_reference_on_fixed_shapes():
    a, b = Var("a"), Var("b")
    inner = Hash(a, 2)
    outer = Hash(Concat((b, inner)), 2)
    twin = Hash(b, 2)  # collides with inner when a = b
    decls = (("a", 1), ("b", 1))
    cases = [
        ([a, inner], [outer]),
        ([KernelMask(a, inner)], [BoxPlus(b, inner), outer]),
        ([twin], [inner]),
        ([], [inner, twin, outer]),
        ([Negate(inner), b], [BoxPlus(a, outer), BoxPlus(b, twin)]),
    ]
    for knowns, targets in cases:
        assert chance(decls, knowns, targets) == restart_chance(decls, knowns, targets)


@settings(max_examples=120, deadline=None)
@given(hash_scenarios(), st.integers(4, 16))
# B + H is 5, but the widest component, v0 with the muxed entry's fresh bit
# and the bit of H('0', 1) it may equal, is 3
@example(((("v0", 1),), [], [Hash(Hash(Lit("0"), 1), 2), Hash(Var("v0"), 1)]), 4)
def test_hash_path_matches_the_restart_reference(scenario, budget):
    decls, knowns, targets = scenario

    def outcome(engine, budget):
        try:
            return engine(decls, knowns, targets, budget=budget)
        except BudgetExceededError as err:
            return "over budget", err.required_bits

    got, want = outcome(chance, budget), outcome(restart_chance, budget)
    if got != want:
        # the budget caps the widest component, which B + H bounds: the
        # reference raises wherever the engine does
        assert want[0] == "over budget"
        if isinstance(got, tuple):
            assert got[1] < want[1]
        else:
            assert got == outcome(restart_chance, oracle.DEFAULT_BUDGET)


def table_bits(decls, es) -> int:
    """B + H over ``es``: the bits of the variables that occur and the
    output bits of each distinct hash node, which bound the widest
    component."""
    used = set().union(*(exprs.free_vars(e) for e in es))
    nodes = {id(n): n for e in es for n in exprs.hash_nodes(e)}.values()
    return sum(b for n, b in decls if n in used) + sum(n.out_bits for n in nodes)


def test_truth_tables_match_the_restart_reference_on_fixed_shapes():
    a, b, c = Var("a"), Var("b"), Var("c")
    decls = (("a", 1), ("b", 1), ("c", 1))
    # the argument is '0' where a = 0 and b where a = 1: fixed in some
    # groups only, so the entry stays unpinned and a gives nothing
    some = Hash(BoxPlus(a, Concat((Lit("0"), b))), 2)
    # fixed in every group of one component but not of the other
    half = Hash(Concat((a, c)), 2)
    inner = Hash(a, 2)
    outer = Hash(Concat((b, inner)), 2)
    # new nodes over equal arguments, as JSON parsing makes: with outer,
    # one class of one entry
    copies = [Hash(Concat((b, Hash(a, 2))), 2) for _ in range(2)]
    cases = [
        ([a], [some], Fraction(1, 4)),
        ([a, b], [some], 1),
        ([a, c], [BoxPlus(c, some)], Fraction(1, 2)),
        ([a], [half], Fraction(1, 4)),
        ([a, c], [half, BoxPlus(b, half)], Fraction(3, 4)),
        ([a, b], [inner, outer], 1),
        ([a], [outer], Fraction(1, 4)),
        ([KernelMask(b, inner), a], [BoxPlus(c, outer)], Fraction(1, 2)),
        ([a, b], [copies[0], Negate(copies[1])], 1),
        ([], [copies[0], copies[1]], Fraction(1, 4)),
        ([copies[0]], [Negate(copies[1]), Proj(outer, 1, 1)], 1),
        ([Proj(copies[0], 2, 2)], [Proj(outer, 1, 1), Negate(inner)], Fraction(1, 8)),
        # entry bits that only a slice reads: the rest is read by nothing
        ([], [Proj(inner, 1, 1)], Fraction(1, 2)),
        ([a], [Proj(outer, 2, 2)], Fraction(1, 2)),
        ([a], [Hash(Proj(inner, 1, 1), 1)], 1),
        ([a, b], [Hash(Concat((b, Proj(inner, 2, 2))), 1)], 1),
        ([b], [Hash(Concat((b, Proj(inner, 2, 2))), 2)], Fraction(1, 4)),
        # three classes of one shape: c's entry is a's or b's unless a = b != c
        ([Hash(a, 1), Hash(b, 1)], [Hash(c, 1)], Fraction(3, 4)),
        # b pins H(b, 2), whose low bit no shown term reads but which is
        # H(c, 2)'s when b = c, as equal high bits make likely
        ([Proj(Hash(c, 2), 1, 1), b, Proj(Hash(b, 2), 1, 1)], [Proj(Hash(c, 2), 2, 2)],
         Fraction(3, 4)),
    ]
    for knowns, targets, value in cases:
        got = chance(decls, knowns, targets)
        assert got == restart_chance(decls, knowns, targets)
        assert got == value, (knowns, targets)


def test_secret_guess_row_matches_the_restart_reference():
    # the query H(0...0.a.b) and the target's entry H(s.a.b) are one entry
    # when s is all zeros: the muxed entries give the closed form
    ell, s = 1, 10
    spec = oracle.builtin_guard_spec("attack-run", ell, s)
    _s, a, b, x, _z, _zh = spec.context
    query = Hash(Concat((Lit("0" * s), a, b)), 2 * ell)
    knowns, targets = [a, b, x, query], [spec.target]
    got = chance(spec.variables, knowns, targets)
    assert got == analytic("secret-guess", ell=ell, secret_bits=s)
    assert got == restart_chance(spec.variables, knowns, targets)


def test_a_component_wider_than_one_chunk_matches_the_reference():
    # u's bits chain into one component, counted over several chunks of rows
    n = oracle.CHUNK_BITS + 1
    u = Var("u")
    rotated = Concat((Proj(u, 2, n), Proj(u, 1, 1)))
    chained = BoxPlus(u, Concat((u, rotated)))  # bit i reads u_i and u_(i-1)
    decls = (("u", n),)
    knowns, targets = [Proj(u, 1, 4), KernelMask(Proj(u, 5, 5), Proj(chained, 1, 2))], [chained]
    assert chance(decls, knowns, targets) == reference_chance(decls, knowns, targets)


# --- the two counts behind a component's chance ---------------------------------


@st.composite
def component_tables(draw):
    """A component width k in 0..8 with 0-6 given and 1-6 target truth
    tables over its 2**k rows, each a mask, a complement, or a row-number bit."""
    k = draw(st.integers(0, 8))
    rows = 1 << k
    table = st.one_of(st.integers(-(1 << rows), (1 << rows) - 1),
                      st.integers(0, k - 1).map(lambda j: oracle._pattern(j, k)) if k else st.just(0))
    return draw(st.lists(table, max_size=6)), draw(st.lists(table, min_size=1, max_size=6)), k


def assert_counts_agree(known, targets, k):
    rows = oracle._best_counted(known, targets, k)
    assert oracle._best_masks(known, targets, k) == rows == oracle._best_rows(known, targets, k)
    return rows


@settings(max_examples=300, deadline=None)
@given(component_tables())
# tables a caller may pass besides exact ones: constant, negative, or wider
# than the 2**k rows, of which only the low 2**k bits are the component's
@example(([], [-1], 0))
@example(([-2], [3, -(1 << 9)], 0))
@example(([], [-2], 1))
@example(([-3], [1], 1))
@example(([(1 << 9) | 2], [(1 << 9) | 1], 1))
@example(([], [(1 << 9) | 1, 0], 1))
@example(([0], [-1, 6], 1))
@example(([-1, 5], [-4], 1))
@example(([-(1 << 9)], [12, 9], 2))
@example(([6], [-3, -1], 2))
def test_mask_count_matches_the_row_count(case):
    # both regimes of _best_rows, on either side of the width that chooses;
    # a pass counts two-row components as position masks, and the k = 1
    # examples here go through _best_masks
    assert_counts_agree(*case)


@pytest.mark.parametrize("k", [oracle.WORD_LOG, oracle.WORD_LOG + 1])
@pytest.mark.parametrize("n_known, n_targets", [(0, 1), (1, 1), (3, 3), (3, 4), (6, 1), (6, 6)])
def test_mask_count_matches_the_row_count_at_the_word_boundary(k, n_known, n_targets):
    rng = random.Random(f"{k}:{n_known}:{n_targets}")
    known = [rng.getrandbits(1 << k) for _ in range(n_known)]
    targets = [rng.getrandbits(1 << k) for _ in range(n_targets)]
    assert_counts_agree(known, targets, k)
    # a function of the given fills every row, and a blind bit is a coin
    rows = [oracle._pattern(j, k) for j in range(k)]
    assert assert_counts_agree(rows, targets, k) == 1 << k
    assert assert_counts_agree(rows[1:], rows[:1], k) == 1 << k - 1


# --- two-row components counted as position masks ------------------------------


@st.composite
def two_row_scenarios(draw):
    """Declarations, knowns and targets whose bits mostly read one position
    each, so that a pass has many two-row components: 1-bit variables,
    their negations and literals (tables that are negative ints), and
    selections and kernel masks of a variable by a token of two bits, which
    read the variable but vary on it only when the halves differ (a kernel
    mask's star bits never vary on it).  Hash nodes of 1 or 2 bits hash
    such bits, or a bit of an earlier node, so their arguments share
    variables with the knowns and targets; knowns may pin them or not, and
    nodes of one shape may collide."""
    n = draw(st.integers(1, 5))
    decls = tuple((f"v{i}", 1) for i in range(n))
    var = st.sampled_from([Var(name) for name, _ in decls])
    lit1 = st.sampled_from([Lit("0"), Lit("1")])
    plain = st.one_of(var, var.map(Negate), lit1)
    nodes: list = []

    def bit():
        options = [plain, st.builds(lambda x, a, b: BoxPlus(x, Concat((a, b))), var, plain, plain)]
        if nodes:
            options.append(st.sampled_from(nodes).flatmap(lambda h: st.sampled_from(
                [Proj(h, i, i) for i in range(1, h.out_bits + 1)])))
        return st.one_of(options)

    for _ in range(draw(st.integers(0, 3))):
        arg = draw(st.lists(bit(), min_size=1, max_size=2))
        nodes.append(Hash(Concat(tuple(arg)), draw(st.integers(1, 2))))
    term = st.one_of(
        st.lists(bit(), min_size=1, max_size=3).map(lambda bs: Concat(tuple(bs))),
        bit(),
        st.builds(lambda x, a, b: KernelMask(x, Concat((a, b))), var, plain, plain),
        st.sampled_from(nodes) if nodes else bit())
    return decls, draw(st.lists(term, max_size=4)), draw(st.lists(term, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(two_row_scenarios())
@example(((("v0", 1), ("v1", 1)), [Var("v0")], [Hash(Concat((Var("v0"),)), 1), Negate(Var("v1"))]))
@example(((("v0", 1),), [KernelMask(Var("v0"), Concat((Lit("1"), Lit("1"))))], [Var("v0")]))
# passes of one-position components: no position, a pinned class, an unpinned one
@example(((("v0", 1),), [Lit("1")], [Concat((Lit("0"), Lit("1")))]))
@example(((("v0", 1), ("v1", 1)), [Negate(Var("v0"))], [Hash(Concat((Var("v0"),)), 2), Var("v1")]))
@example(((("v0", 1), ("v1", 1)), [Var("v1")], [Hash(Concat((Var("v0"),)), 2), Negate(Var("v1"))]))
def test_two_row_masks_match_the_references(scenario):
    decls, knowns, targets = scenario
    got = chance(decls, knowns, targets)
    if any(exprs.hash_nodes(e) for e in knowns + targets):
        assert got == restart_chance(decls, knowns, targets)
    else:
        assert got == reference_chance(decls, knowns, targets)
    # one pass over more terms, as the checks ask, reads the same chance
    assert oracle.chances(decls, [*targets, *knowns, Var(decls[0][0])])(knowns, targets) == got


def test_passes_of_single_positions_build_no_tables(monkeypatch):
    v0, v1, token = Var("v0"), Var("v1"), Lit("10110010")
    pair = (("v0", 1), ("v1", 1))
    kernel = ((("v0", 4),), [token], [BoxPlus(v0, token)])
    pinned = (pair, [Negate(v0)], [Hash(Concat((v0,)), 2), v1])
    unpinned = (pair, [v1], [Hash(Concat((v0,)), 2), Negate(v1)])
    blank = (pair, [token], [Lit("1")])  # no position
    queries = [kernel, pinned, unpinned, blank]
    want = [restart_chance(*q) for q in queries]
    assert want == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), 1]
    for decls, knowns, targets in queries:  # plain: read off the walk, with no tables at all
        assert pass_over(GuessScenario(decls, tuple(knowns), tuple(targets))).func is oracle._plain_chance

    def refuse(*args):
        raise AssertionError(f"a one-position pass built or merged tables: {args[-1]!r}")

    for name in ("_patterns", "_best_rows", "_merged"):
        monkeypatch.setattr(oracle, name, refuse)
    assert [chance(*q) for q in (kernel, blank)] == [want[0], want[3]]
    monkeypatch.undo()  # a query with a class to pin merges its entry's groups
    monkeypatch.setattr(oracle, "_patterns", refuse)
    monkeypatch.setattr(oracle, "_best_rows", refuse)
    assert [chance(*q) for q in (pinned, unpinned)] == want[1:3]
    with pytest.raises(AssertionError, match="tables: 6"):  # muxed classes: one 6-bit component
        chance(pair, [], [Hash(v0, 2), Hash(v1, 2)])


# --- constants folded: passes read off the analysis walk -----------------------


@st.composite
def literal_scenarios(draw):
    """Declarations, knowns and targets whose selections mostly read
    constants: literal challenges, token halves that are literals or
    slices, concatenations and negations of literals, and kernel masks of
    such tokens, so that most passes are answered from the walk.  Partly
    literal challenges and plain terms over the variables fold some bits
    only, and send the pass through the component merge on folded masks.
    Up to two hash nodes hash such a term, and a term may read one, so
    that knowns may pin it."""
    widths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    decls = tuple((f"v{i}", b) for i, b in enumerate(widths))

    @cache
    def constant(w):
        text = st.text("01", min_size=w, max_size=w)
        wider = st.tuples(st.text("01", min_size=w + 1, max_size=w + 2), st.integers(0, 2)).map(
            lambda t: Proj(Lit(t[0]), min(t[1], len(t[0]) - w) + 1, min(t[1], len(t[0]) - w) + w))
        options = [text.map(Lit), text.map(lambda t: Negate(Lit(t))), wider]
        if w >= 2:
            options.append(st.integers(1, w - 1).flatmap(
                lambda cut: st.tuples(constant(cut), constant(w - cut)).map(Concat)))
        return st.one_of(options)

    @cache
    def term(w, depth):
        options = [constant(w), bit_exprs(decls, w, 1)]
        if depth:
            half = term(w, depth - 1)
            token = st.one_of(st.tuples(half, constant(w)), st.tuples(constant(w), half),
                              st.tuples(constant(w), constant(w))).map(Concat)
            challenge = constant(w) if w < 2 else st.one_of(constant(w), st.tuples(
                constant(1), term(w - 1, 0)).map(Concat), st.tuples(term(w - 1, 0), constant(1)).map(Concat))
            options += [st.builds(BoxPlus, challenge, term(2 * w, depth - 1)),
                        st.builds(BoxPlus, term(w, depth - 1), token),
                        term(w, depth - 1).map(Negate)]
        return st.one_of(options)

    nodes = [Hash(draw(term(w, 1)), w) for w in draw(st.lists(st.sampled_from(widths), max_size=2))]
    width = st.sampled_from(widths)
    shown = [width.flatmap(lambda w: term(w, 2)), width.flatmap(lambda w: bit_exprs(decls, w, 2)),
             width.flatmap(lambda w: st.builds(KernelMask, term(w, 1), st.tuples(
                 constant(w), constant(w)).map(Concat)))]
    if nodes:
        shown.append(st.sampled_from(nodes).flatmap(lambda node: st.one_of(
            st.just(node), st.builds(BoxPlus, constant(node.out_bits), st.tuples(
                st.just(node), constant(node.out_bits)).map(Concat)))))
    any_term = st.one_of(shown)
    return decls, draw(st.lists(any_term, max_size=3)), draw(st.lists(any_term, min_size=1, max_size=2))


@settings(max_examples=150, deadline=None)
@given(literal_scenarios())
# a distance-law query: x = 011 and z = 110 differ in two bits
@example(((("h", 6),), [Lit("011"), Lit("110"), BoxPlus(Lit("110"), Var("h"))],
          [BoxPlus(Lit("011"), Var("h"))]))
# every bit reads x's one position, yet is the constant 1
@example(((("x", 1),), [], [BoxPlus(Var("x"), Concat((Negate(Var("x")), Var("x"))))]))
# a hash of one position's copy, pinned by the knowns
@example(((("v0", 1), ("v1", 1)), [Negate(Var("v0"))],
          [Hash(BoxPlus(Lit("1"), Concat((Var("v1"), Var("v0")))), 1),
           Proj(Concat((Lit("0"), Var("v1"))), 2, 2)]))
def test_folded_constants_match_the_restart_reference(scenario):
    decls, knowns, targets = scenario
    got = chance(decls, knowns, targets)
    assert got == restart_chance(decls, knowns, targets)
    # one pass over more terms, as the checks ask, reads the same chance
    assert oracle.chances(decls, [*targets, *knowns, Var(decls[0][0])])(knowns, targets) == got


def test_constants_and_copies_are_read_off_the_walk(monkeypatch):
    # once a challenge bit is known, a response bit is one token bit: the
    # kernel query, a distance-law query and the hamming claim are answered
    # from the analysis walk and build no pass; prop34's selects by the
    # unknown x
    x, h, token = Var("x"), Var("h"), lit(0b10110010, 8)
    kernel = ((("x", 4),), [token], [BoxPlus(x, token)])
    distance = ((("h", 6),), [lit(0b011, 3), lit(0b110, 3), BoxPlus(lit(0b110, 3), h)],
                [BoxPlus(lit(0b011, 3), h)])
    widths = []
    real = oracle._TruthTables.__init__

    def spy(self, *args):
        real(self, *args)
        widths.append(self.widths)

    def refuse(*args):
        raise AssertionError("a pass read off the walk merged, tabulated or sliced")

    monkeypatch.setattr(oracle._TruthTables, "__init__", spy)
    for name in ("_slices", "_patterns", "_best_rows", "_merged"):
        monkeypatch.setattr(oracle, name, refuse)
    assert chance(*kernel) == analytic("kernel", kappa=2, ell=4)
    assert chance(*distance) == analytic("hamming", delta=2)
    assert widths == []
    assert cli._claim_hamming(3)[1]
    assert widths == []
    monkeypatch.undo()
    monkeypatch.setattr(oracle._TruthTables, "__init__", spy)
    widths.clear()
    assert cli._claim_prop34(3)[1]
    assert len(widths) == 1 and widths[0] != []


# --- a plain query is read off its masks on any pass ---------------------------


def is_plain(decls, knowns, targets) -> bool:
    """Whether every bit of the terms is a constant or a copy of one
    position, and no hash class they read is muxed."""
    _, reads, _, classes = GuessScenario(decls, tuple(knowns), tuple(targets))._walk
    return "?" not in "".join(r[2] for r in reads) and not any(c.earlier for c in classes.values())


def refuse_tables(*args):
    raise AssertionError("a plain query was counted on tables")


@settings(max_examples=150, deadline=None)
@given(st.one_of(literal_scenarios(), hash_scenarios()))
# hash-reading plain queries: a pinned entry, an entry whose argument is
# half known, a chain pinned in two steps, and colliding classes (muxed:
# not plain, so counted on tables)
@example(((("v0", 1), ("v1", 2)), [Var("v0")], [Hash(Var("v0"), 2), Hash(Concat((Var("v0"), Lit("1"))), 1)]))
@example(((("v0", 1), ("v1", 1)), [Negate(Var("v0"))], [Hash(Concat((Var("v1"), Var("v0"))), 2)]))
@example(((("v0", 1),), [Var("v0")], [Hash(Hash(Var("v0"), 2), 1)]))
@example(((("v0", 1), ("v1", 1)), [Var("v0")], [Hash(Var("v0"), 1), Hash(Var("v1"), 1)]))
def test_a_plain_query_reads_its_masks_on_a_tabulated_pass(scenario):
    # a query whose bits are all constants or copies of one position, and
    # which reads no muxed class, is 2**-popcount(target & ~known) even on
    # a pass whose other terms, here a selection by p of q, are tabulated
    decls, knowns, targets = scenario
    p, q = Var("p"), Var("q")
    chance_of = oracle.chances(decls + (("p", 1), ("q", 2)), [*knowns, *targets, BoxPlus(p, q)])
    assert 3 in chance_of.widths  # the selection's component: the pass is tabulated
    plain = is_plain(decls, knowns, targets)
    with pytest.MonkeyPatch.context() as patch:
        if plain:
            for name in ("_best_rows", "_merged"):
                patch.setattr(oracle, name, refuse_tables)
        got = chance_of(knowns, targets)
        assert chance_of(tuple(knowns), list(targets)) == got  # knowns and targets may be any sequences
    assert got == chance(decls, knowns, targets) == restart_chance(decls, knowns, targets)


def test_a_plain_query_past_the_powers_table():
    # 2**-n comes off a table built at import for n < 64, and is built
    # past it, on a pass of plain terms and on a tabulated one
    w, p, q = Var("w"), Var("p"), Var("q")
    decls = (("w", 70), ("p", 1), ("q", 2))
    terms = [w, Proj(w, 1, 63), Proj(w, 1, 64), Proj(w, 2, 66)]
    for shown in (terms, [*terms, BoxPlus(p, q)]):
        chance_of = oracle.chances(decls, shown)
        assert [chance_of([], [e]) for e in terms] == [Fraction(1, 2**n) for n in (70, 63, 64, 65)]
        assert chance_of([terms[1]], [w]) == Fraction(1, 2**7)
    assert chance(decls, [Proj(w, 70, 70)], [w]) == Fraction(1, 2**69)
    assert oracle._POWERS == tuple(Fraction(1, 2**n) for n in range(64))


def test_only_queries_that_are_not_plain_count_rows(monkeypatch):
    # prop34's fixed-x queries select by a literal challenge: plain, so
    # only its unknown-x queries count rows, one per 3-bit component of
    # x_i, h_i and h_(l+i); kernel, distance-law and hamming queries count
    # none
    calls = []
    real = oracle._best_rows
    monkeypatch.setattr(oracle, "_best_rows", lambda *args: calls.append(args[2]) or real(*args))
    for ell, count in ((3, 8 * 3), (4, 16 * 4)):
        calls.clear()
        assert cli._claim_prop34(ell)[1]
        assert len(calls) == count and set(calls) == {3}
    calls.clear()
    x, h, token = Var("x"), Var("h"), lit(0b10110010, 8)
    assert chance({"x": 4}, [token], [BoxPlus(x, token)]) == analytic("kernel", kappa=2, ell=4)
    assert chance({"h": 6}, [lit(0b011, 3), lit(0b110, 3), BoxPlus(lit(0b110, 3), h)],
                  [BoxPlus(lit(0b011, 3), h)]) == analytic("hamming", delta=2)
    assert cli._claim_hamming(3)[1]
    assert calls == []


# --- a plain query builds no pass ----------------------------------------------


def outcome(ask):
    """What ``ask()`` gives: its value, or the type and message of the
    ValueError (a BudgetExceededError among them) that it raises."""
    try:
        return ask()
    except ValueError as err:
        return type(err), str(err)


def counted(decls, queries):
    """Each (knowns, targets) of ``queries`` counted on truth tables with
    the walk's answer shut off, on one pass over their terms and a
    selection of a fresh p by a fresh q, which makes the pass tabulate;
    and that pass."""
    p, q = Var("p"), Var("q")
    shown = (*(e for ks, ts in queries for e in (*ks, *ts)), BoxPlus(p, q))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_plain_chance", lambda *args: None)
        chance_of = pass_over(GuessScenario(decls + (("p", 1), ("q", 2)), (), shown))
        return [chance_of(ks, ts) for ks, ts in queries], chance_of


def on_pass(scenario, budget):
    """The chance, and its gain over guessing cold, as the scenario's own
    pass answers them."""
    chance_of = pass_over(scenario, budget)
    value = chance_of(scenario.knowns, scenario.targets)
    return value, value - chance_of((), scenario.targets)


w70 = Var("w")


@settings(max_examples=150, deadline=None)
@given(st.one_of(literal_scenarios(), hash_scenarios()), st.sampled_from([0, 1, 3, oracle.DEFAULT_BUDGET]))
# a chain pinned in two steps
@example(((("v0", 1),), [Var("v0")], [Hash(Hash(Var("v0"), 2), 1)]), oracle.DEFAULT_BUDGET)
# an entry whose argument is half known
@example(((("v0", 1), ("v1", 1)), [Negate(Var("v0"))], [Hash(Concat((Var("v1"), Var("v0"))), 2)]),
         oracle.DEFAULT_BUDGET)
# colliding classes: muxed, so counted on tables
@example(((("v0", 1), ("v1", 1)), [Var("v0")], [Hash(Var("v0"), 1), Hash(Var("v1"), 1)]), oracle.DEFAULT_BUDGET)
@example(((("v0", 1), ("v1", 1)), [Var("v0")], [Hash(Var("v0"), 1), Hash(Var("v1"), 1)]), 1)
# a 70-bit variable: 2**-67 and, cold, 2**-70, past the powers table
@example(((("w", 70),), [Proj(w70, 1, 3)], [w70]), oracle.DEFAULT_BUDGET)
# budgets 0 and 1: a plain query that reads a position needs 1 bit, a constant none
@example(((("v0", 1),), [], [Var("v0")]), 0)
@example(((("v0", 1),), [Var("v0")], [Lit("1")]), 0)
@example(((("v0", 1),), [], [Lit("1")]), 0)
@example(((("v0", 2),), [], [Hash(Var("v0"), 2)]), 1)
# malformed budgets
@example(((("v0", 1),), [], [Lit("1")]), True)
@example(((("v0", 1),), [Var("v0")], [Var("v0")]), -1)
@example(((("v0", 1), ("v1", 1)), [Var("v0")], [Hash(Var("v0"), 1), Hash(Var("v1"), 1)]), "24")
def test_the_walk_answers_as_the_pass_it_bypasses(scenario, budget):
    # chance, the gain over guessing cold (two chances) and check_subbayes
    # read a plain scenario off the walk: the same values as the tables,
    # the product rule and the restart reference count, and the budget
    # errors the pass raised
    decls, knowns, targets = scenario
    knowns, targets = tuple(knowns), tuple(targets)
    xi, gamma = knowns[:1], knowns[1:]
    s = GuessScenario(decls, knowns, targets)
    (value, cold, *three), tabulated = counted(decls, [(knowns, targets), ((), targets), (xi, gamma),
                                                       (knowns, targets), (xi, gamma + targets)])
    if sum(bits for _, bits in decls) <= 12:
        assert value == restart_chance(decls, knowns, targets)
    if (split := tabulated.product_rule(xi, gamma, targets)) is not None:
        assert list(split) == three
    got = [outcome(lambda: chance(decls, knowns, targets, budget)),
           outcome(lambda: chance(decls, knowns, targets, budget) - chance(decls, (), targets, budget)),
           outcome(lambda: check_subbayes(decls, xi, gamma, targets, budget))]
    _, walked, _, _ = s._walk
    reads = any(r[4] for r in walked) or any(exprs.hash_nodes(e) for e in knowns + targets)
    if type(budget) is not int or budget < 0:
        want = [(ValueError, f"budget must be an int >= 0, got {budget!r}")] * 3
    elif not is_plain(decls, knowns, targets):  # counted on the scenario's own pass, as before
        passed = outcome(lambda: on_pass(s, budget))
        want = [passed[0], passed[1]] if type(passed[0]) is Fraction else [passed] * 2
        want.append(outcome(lambda: subbayes_reference(decls, xi, gamma, targets, budget)))
    elif budget < 1 and reads:
        want = [(BudgetExceededError, str(BudgetExceededError(1, budget)))] * 3
    else:
        want = [value, value - cold, subbayes_reference(decls, xi, gamma, targets, budget)]
    assert got == want
    if type(got[0]) is Fraction:
        assert got[0] == value and got[1] == value - cold
    if type(got[2]) is oracle.SubbayesReport:
        assert list(got[2][:3]) == three


def test_plain_queries_build_no_pass(monkeypatch):
    # the kernel query, a distance-law query, a plain product-rule case
    # and the kernel and hamming claims are read off the walk, and build
    # no pass at all; a check that counts rows, a guard check and prop34,
    # which selects by an unknown challenge, build exactly one
    passes = []
    real = oracle._TruthTables.__init__
    monkeypatch.setattr(oracle._TruthTables, "__init__", lambda *args: passes.append(args) or real(*args))

    def count(check, *args):
        passes.clear()
        check(*args)
        return len(passes)

    x, h, token, v0, v1 = Var("x"), Var("h"), lit(0b10110010, 8), Var("v0"), Var("v1")
    assert count(chance, {"x": 4}, [token], [BoxPlus(x, token)]) == 0
    assert count(chance, {"h": 6}, [lit(0b011, 3), lit(0b110, 3), BoxPlus(lit(0b110, 3), h)],
                 [BoxPlus(lit(0b011, 3), h)]) == 0
    pair = (("v0", 2), ("v1", 1))
    assert count(check_subbayes, pair, (v0,), (Negate(v1),), (Proj(Concat((v0, v1)), 1, 2),)) == 0
    assert count(check_subbayes, pair, (v1,), (v0,), (BoxPlus(v1, v0),)) == 1  # selects by v1
    assert count(chance, (("v0", 1), ("v1", 1)), [v0], [Hash(v0, 1), Hash(v1, 1)]) == 1  # muxed
    assert count(check_prob_guard, oracle.builtin_guard_spec("attack-run")) == 1
    assert [count(claim, 3) for claim in (cli._claim_prop34, cli._claim_hamming, cli._claim_kernel)] == [1, 0, 0]
    # the seed-1 corpus of the bench's exact workload: 464 plain cases of 500
    rng = random.Random(1)
    built = Counter(count(check_subbayes, *oracle.random_subbayes_case(rng)) for _ in range(500))
    assert built == {0: 464, 1: 36}


def test_a_plain_chance_builds_no_scenario(monkeypatch):
    # the kernel query is read off its one walk: no scenario, no pass and
    # no guess_chance; a muxed query hands that walk, through guess_chance,
    # to one pass, and builds no scenario with a walk of its own
    built = Counter()
    for owner, name, label in ((oracle, "_walk", "walk"), (oracle, "guess_chance", "guess_chance"),
                               (GuessScenario, "__init__", "scenario"), (oracle._TruthTables, "__init__", "pass")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, label=label: built.update([label]) or real(*args))
    x, token, v0, v1 = Var("x"), lit(0b10110010, 8), Var("v0"), Var("v1")
    assert chance({"x": 4}, [token], [BoxPlus(x, token)]) == analytic("kernel", kappa=2, ell=4)
    assert built == {"walk": 1}
    built.clear()
    pair = (("v0", 1), ("v1", 1))
    assert chance(pair, [v0], [Hash(v0, 1), Hash(v1, 1)]) == restart_chance(pair, [v0], [Hash(v0, 1), Hash(v1, 1)])
    assert built == {"walk": 1, "guess_chance": 1, "pass": 1}


PLANTED = {  # planted faults, in the order the walk reports them
    "duplicate": "duplicate variable declaration 'v0'",
    "width": "variable 'bad' width must be >= 0, got -1",
    "undeclared": "undeclared variable 'ghost'",
}


@settings(max_examples=150, deadline=None)
@given(st.one_of(literal_scenarios(), hash_scenarios()), st.sampled_from([0, 1, 3, oracle.DEFAULT_BUDGET]),
       st.sets(st.sampled_from([*PLANTED, "budget"])), st.sampled_from([True, -1, 1.5, "24"]))
# every fault at once: the duplicate, declared after the bad width, is reported first
@example(((("v0", 1),), [], [Var("v0")]), 1, {*PLANTED, "budget"}, -1)
# an undeclared variable is reported before a malformed budget
@example(((("v0", 1),), [], [Var("v0")]), 1, {"undeclared", "budget"}, "24")
def test_chance_answers_as_its_scenario_does(scenario, budget, faults, malformed):
    # chance reads a plain query off its walk, and hands any other's walk
    # to one pass: the value guess_chance gives on the scenario, the
    # tables' count and the restart reference, or the same first error
    decls, knowns, targets = scenario
    knowns, targets = tuple(knowns), tuple(targets)
    decls = (("bad", -1),) * ("width" in faults) + decls + (("v0", 1),) * ("duplicate" in faults)
    knowns += (Var("ghost"),) * ("undeclared" in faults)
    budget = malformed if "budget" in faults else budget
    got = outcome(lambda: chance(decls, knowns, targets, budget))
    assert got == outcome(lambda: guess_chance(GuessScenario(decls, knowns, targets), budget))
    if first := next((fault for fault in PLANTED if fault in faults), None):
        assert got == (ValueError, PLANTED[first])
    elif "budget" in faults:
        assert got == (ValueError, f"budget must be an int >= 0, got {malformed!r}")
    elif type(got) is Fraction:
        (value,), _ = counted(decls, [(knowns, targets)])
        assert got == value == restart_chance(decls, knowns, targets)
    else:  # over a small budget, as the scenario's own pass or walk is
        assert budget < oracle.DEFAULT_BUDGET and got[0] is BudgetExceededError


# --- malformed inputs to the checks -------------------------------------------------


@pytest.mark.parametrize("budget", [True, False, -1, 1.5, 24.0, None, "24"])
def test_a_malformed_budget_is_a_value_error(budget):
    u = Var("u")
    decls = (("u", 1),)
    spec = GuardSpec(decls, (u,), u, ((u,),))
    for ask in (lambda: chance(decls, [], [Lit("1")], budget),
                lambda: chance(decls, [u], [u], budget),
                lambda: oracle.chances(decls, [u], budget),
                lambda: chance(decls, [u], [u], budget) - chance(decls, [], [u], budget),
                lambda: check_subbayes(decls, (), (u,), (u,), budget),
                lambda: check_prob_guard(spec, budget)):
        with pytest.raises(ValueError, match=r"budget must be an int >= 0, got ") as err:
            ask()
        assert type(err.value) is ValueError  # not a BudgetExceededError
    if budget is False:  # 0 is a budget
        assert chance(decls, [], [Lit("1")], 0) == 1


def test_random_cases_fit_a_small_bit_budget():
    for bits in (2, 3, 4):
        rng = random.Random(0)
        for _ in range(50):
            decls, *_ = oracle.random_subbayes_case(rng, max_total_bits=bits)
            assert 2 <= len(decls) <= bits and sum(b for _, b in decls) <= bits
    for bits in (1, 0, -3):
        with pytest.raises(ValueError, match=f"max_total_bits must be at least 2, got {bits}"):
            oracle.random_subbayes_case(random.Random(0), max_total_bits=bits)


# --- one pass analyses each node once ------------------------------------------


def spy_analyse(monkeypatch) -> Counter:
    """Count, by node id, each time ``_analyse`` works a node out rather
    than reading it back off the walk's memo; refuse the term walks of
    ``exprs``, which one walk per term leaves to the bench and the tests."""
    real, analysed = oracle._analyse, Counter()

    def spy(e, memo, fill):
        if type(e) is not Var and id(e) not in memo:
            analysed[id(e)] += 1
        return real(e, memo, fill)

    def refuse(e):
        raise AssertionError(f"a pass walked {e!r} outside its analysis")

    monkeypatch.setattr(oracle, "_analyse", spy)
    monkeypatch.setattr(exprs, "hash_nodes", refuse)
    monkeypatch.setattr(exprs, "free_vars", refuse)
    return analysed


def test_a_pass_analyses_each_node_once(monkeypatch):
    a, b = Var("a"), Var("b")
    inner = Hash(a, 2)
    outer = Hash(Concat((b, inner)), 2)
    twin = Hash(Concat((b, Hash(a, 2))), 2)  # a copy of outer, as JSON parsing makes
    decls = (("a", 1), ("b", 1))
    queries = [([a, inner], [BoxPlus(b, outer)]), ([KernelMask(a, inner)], [Negate(twin), outer]),
               ([], [inner, Lit("01")])]
    shown = [e for q in queries for es in q for e in es]
    want = [restart_chance(decls, *q) for q in queries]
    other = (decls, (a, inner), (BoxPlus(b, outer),), (Negate(twin), outer))

    def gain(chance_of):  # queries[1]'s chance over guessing its targets cold
        return chance_of(*queries[1]) - chance_of((), queries[1][1])

    checks = [subbayes_reference(*other, oracle.DEFAULT_BUDGET), gain(partial(chance, decls))]
    guard = (decls, (a, inner, KernelMask(a, inner)), outer, ((Negate(twin),), (BoxPlus(b, outer),)))
    covered = per_query_cover(GuardSpec(*guard))
    analysed = spy_analyse(monkeypatch)
    chance_of = oracle.chances(decls, shown)
    assert [chance_of(*q) for q in queries] == want
    # inner, outer and its argument, the twin, its argument and its own H(a),
    # the selection, the mask, the negation and the literal
    assert sorted(analysed.values()) == [1] * 10
    for query, value in zip(queries, want):  # a pass per query, as ``chance`` makes
        analysed.clear()
        assert chance(decls, *query) == value
        assert set(analysed.values()) == {1}
    # a scenario, a pass, a spec and a check walk their terms when built,
    # and each pass and flag reads that walk: 8, 8, 8 and 9 nodes, outer's
    # and the twin's arguments and the twin's H(a) included
    for run, value, nodes in ((lambda: guess_chance(GuessScenario(decls, *map(tuple, queries[1]))), want[1], 8),
                              (lambda: gain(oracle.chances(decls, [e for es in queries[1] for e in es])),
                               checks[1], 8),
                              (lambda: check_subbayes(*other), checks[0], 8),
                              (lambda: check_prob_guard(GuardSpec(*guard)), covered, 9)):
        analysed.clear()
        assert run() == value
        assert sorted(analysed.values()) == [1] * nodes
    scenario = GuessScenario(decls, *map(tuple, queries[1]))  # built beforehand: its passes walk nothing
    analysed.clear()
    assert guess_chance(scenario) == want[1] and gain(pass_over(scenario)) == checks[1] and not analysed


# --- widths that are not ints -----------------------------------------------------


@pytest.mark.parametrize("variables, targets, message", [
    ({"x": True}, [Var("x")], "variable 'x' width must be an int, got True"),
    ({"x": 2.0}, [Var("x")], "variable 'x' width must be an int, got 2.0"),
    ({"x": "2"}, [Var("x")], "variable 'x' width must be an int, got '2'"),
    ({"x": 2}, [Proj(Var("x"), 1.0, 2)], "slice bounds must be ints, got 1.0..2"),
    ({"x": 2}, [Proj(Var("x"), 1, True)], "slice bounds must be ints, got 1..True"),
    ({"x": 2}, [Hash(Var("x"), 2.0)], "hash output width must be an int, got 2.0"),
    ({"x": 2}, [Negate(Hash(Var("x"), True))], "hash output width must be an int, got True"),
])
def test_widths_that_are_not_ints_are_usage_errors(variables, targets, message):
    with pytest.raises(ValueError, match=message.replace(".", r"\.")):
        chance(variables, [], targets)
    with pytest.raises(ValueError, match=message.replace(".", r"\.")):
        oracle.chances(variables, targets)


# --- one walk checks each term: the first fault met ----------------------------

MASKED = {  # a KernelMask below the top level, by the node it feeds
    Concat: "masked string cannot be concatenated",
    Negate: "masked string cannot be negated",
    Proj: "masked string cannot be sliced",
    Hash: "masked string cannot be hashed",
    BoxPlus: "masked string cannot feed a selection operator",
    KernelMask: "masked string cannot feed a selection operator",
}
FAULTS = {  # a planted fault -> whether it is met before or after the node's arguments, and its message
    "undeclared": ("before", "undeclared variable 'nowhere'"),
    "bounds": ("before", "slice bounds must be ints, got {lo!r}..{hi!r}"),
    "out_bits": ("before", "hash output width must be an int, got {bits!r}"),
    "masked": ("before", None),  # a node fed a KernelMask: its MASKED message
    "range": ("after", "slice {lo}..{hi} out of range 1..{w}"),
    "token": ("after", "token width {wh} is not twice the challenge width {wx}"),
}


def arguments(e) -> tuple:
    """A node's argument terms, in field order."""
    if type(e) is Concat:
        return e.parts
    if type(e) in (Negate, Proj, Hash):
        return (e.arg,)
    return (e.x, e.h) if type(e) in (BoxPlus, KernelMask) else ()


def with_argument(e, i: int, new):
    """``e`` with its i-th argument replaced by ``new``."""
    if type(e) is Concat:
        return Concat(e.parts[:i] + (new,) + e.parts[i + 1:])
    if type(e) in (Negate, Proj, Hash):
        return type(e)(new, *[getattr(e, f) for f in e.__match_args__[1:]])
    return type(e)(*(new if j == i else a for j, a in enumerate((e.x, e.h))))


def places(e, path=()):
    """The path of every node of ``e``, by argument index, root first."""
    yield path
    for i, a in enumerate(arguments(e)):
        yield from places(a, path + (i,))


def planted_at(e, path, new):
    if not path:
        return new
    return with_argument(e, path[0], planted_at(arguments(e)[path[0]], path[1:], new))


def first_fault(terms, planted: dict) -> str:
    """The message of the first planted fault that a walk meets when it
    takes each term in turn, depth first and arguments in field order: a
    fault met before the node's arguments, the arguments, then one met
    after them.  ``planted`` maps a node's id to its fault's (when,
    message)."""
    def walk(e):
        when, message = planted.get(id(e)) or (None, None)
        if when == "before":
            return message
        for a in arguments(e):
            if got := walk(a):
                return got
        return message

    return next(got for got in map(walk, terms) if got)


@st.composite
def faulty_terms(draw):
    """Declarations, one to three terms, some hashed, with one or two
    faults planted at places neither of which holds the other, and the
    message of the first fault met.  A mask is planted as an argument of
    a node of each kind, beside an argument that may itself be faulty,
    and may hold a fault of its own: the node's check comes first.  A
    masked node is planted at the top level only."""
    widths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    decls = tuple((f"v{i}", b) for i, b in enumerate(widths))

    def term(w, depth=1):
        return draw(bit_exprs(decls, w, depth))

    def maybe_undeclared(w):
        return draw(st.one_of(bit_exprs(decls, w, 1), st.just(Var("nowhere"))))

    terms = []
    for w in draw(st.lists(st.sampled_from(widths), min_size=1, max_size=3)):
        t = term(w, 2)
        terms.append(Hash(t, draw(st.integers(1, 2))) if draw(st.booleans()) else t)
    sites = [(i, path) for i, t in enumerate(terms) for path in places(t)]
    picks = draw(st.lists(st.sampled_from(sites), min_size=1, max_size=2, unique=True))
    picks = [p for p in picks if not any(q != p and q[0] == p[0] and p[1][:len(q[1])] == q[1] for q in picks)]
    planted = {}
    for i, path in picks:
        kind, w = draw(st.sampled_from(list(FAULTS))), draw(st.integers(1, 3))
        when, message = FAULTS[kind]
        if kind == "undeclared":
            node = Var("nowhere")
        elif kind == "masked":  # the mask's challenge and the other argument may be undeclared
            mask, other = KernelMask(maybe_undeclared(w), term(2 * w)), maybe_undeclared(w)
            fed = [Concat((mask, other)), Concat((other, mask)), Negate(mask), Proj(mask, 1, 1),
                   Hash(mask, 1), BoxPlus(mask, term(2 * w)), BoxPlus(other, mask)]
            node = draw(st.sampled_from(fed if path else fed + [KernelMask(other, mask)]))  # a mask is a term
            message = MASKED[type(node)]
        elif kind == "bounds":
            lo, hi = draw(st.sampled_from([(1.0, 1), (1, True), (None, 2), (False, "1")]))
            node, message = Proj(term(w), lo, hi), message.format(lo=lo, hi=hi)
        elif kind == "out_bits":
            bits = draw(st.sampled_from([2.0, True, 0.5]))
            node, message = Hash(term(w), bits), message.format(bits=bits)
        elif kind == "range":  # each bound just past its end of the range
            hi = draw(st.integers(0, w))
            lo, hi = draw(st.sampled_from([(0, hi), (hi + 2, hi), (1, w + 1)]))
            node, message = Proj(term(w), lo, hi), message.format(lo=lo, hi=hi, w=w)
        else:
            wh = draw(st.integers(0, 4).filter(lambda n: n != 2 * w))
            node, message = BoxPlus(term(w), term(wh)), message.format(wh=wh, wx=w)
        terms[i] = planted_at(terms[i], path, node)
        planted[id(node)] = when, message
    return decls, terms, first_fault(terms, planted)


@settings(max_examples=300, deadline=None)
@given(faulty_terms())
def test_the_walk_reports_the_first_fault_of_its_terms(case):
    decls, terms, message = case
    for build in (lambda: GuessScenario(decls, tuple(terms[:1]), tuple(terms[1:])),
                  lambda: oracle.chances(decls, terms),
                  lambda: GuardSpec(decls, tuple(terms[:-1]), terms[-1], ())):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


# --- one pass slices each term once ---------------------------------------------


def spy_slices(monkeypatch) -> Counter:
    """Count, by node id, each time ``_slices`` works a node out rather
    than reading it back off the pass's tables."""
    real, worked = oracle._slices, Counter()

    def spy(e, cols):
        if type(e) is not Var and id(e) not in cols:
            worked[id(e)] += 1
        return real(e, cols)

    monkeypatch.setattr(oracle, "_slices", spy)
    return worked


def test_a_pass_slices_each_term_once(monkeypatch, capsys):
    worked = spy_slices(monkeypatch)
    x, token = Var("x"), lit(0b10110010, 8)
    assert chance({"x": 4}, [token], [BoxPlus(x, token)]) == analytic("kernel", kappa=2, ell=4)
    assert worked == {}  # every bit a constant or a copy of x's: the pass is read off the walk
    worked.clear()
    assert cli.main(["enumerate", "--claim", "prop34", "--ell", "4"]) == 0
    capsys.readouterr()
    # boxplus(x,h), the 16 literals, and the 16 selections that read them again
    assert sorted(worked.values()) == [1] * 33


def test_short_lived_kernel_queries_share_no_tables():
    # each literal dies with its query, so later ones reuse its id
    x = Var("x")
    for raw in range(256):
        token = lit(raw, 8)
        kappa = (~(raw >> 4 ^ raw) & 15).bit_count()
        assert chance({"x": 4}, [token], [BoxPlus(x, token)]) == analytic("kernel", kappa=kappa, ell=4)


# --- what cover's memo rests on -------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.one_of(hash_scenarios(), hash_free_scenarios()), st.randoms(use_true_random=False))
def test_chance_depends_on_the_set_of_knowns(scenario, rng):
    decls, knowns, targets = scenario
    shuffled = list(knowns)
    rng.shuffle(shuffled)
    if knowns:
        shuffled.insert(rng.randrange(len(shuffled) + 1), rng.choice(knowns))
    assert chance(decls, shuffled, targets) == chance(decls, knowns, targets)


def test_prob_guard_asks_each_distinct_chance_once(monkeypatch):
    spec = oracle.builtin_guard_spec("attack-run", ell=1)
    asked = []
    real_cover = oracle.cover

    def spying_cover(context, target, guards, chance_of):
        def spy(known, want):
            asked.append((frozenset(known), tuple(want)))
            return chance_of(known, want)
        return real_cover(context, target, guards, spy)

    monkeypatch.setattr(oracle, "cover", spying_cover)
    report = check_prob_guard(spec)
    monkeypatch.undo()
    assert len(asked) == len(set(asked)) == 136

    # every row as the unmemoised quantifier would compute it
    def c(known, want):
        return chance(spec.variables, known, want)

    assert report.baseline == c((), (spec.target,))
    assert [r.subset for r in report.rows] == list(oracle.context_subsets(len(spec.context)))
    for row in report.rows:
        subset = tuple(spec.context[i] for i in row.subset)
        assert row.lhs == c(subset, (spec.target,))
        assert row.advantage == row.lhs - report.baseline
        assert row.exempt == (row.advantage <= 0)
        if row.exempt:
            assert (row.rhs, row.witness, row.ok) == (None, None, True)
            continue
        covers = [c(subset, g) * c(subset + tuple(g), (spec.target,)) for g in spec.guards]
        assert row.rhs == max(covers) and row.witness == covers.index(max(covers))
        assert row.ok == (row.lhs <= row.rhs)
    assert report.ok and report.ok == all(r.ok for r in report.rows)


# --- one shared table against per-query chances --------------------------------


def per_query_cover(spec, budget=oracle.DEFAULT_BUDGET):
    """``cover`` asking ``chance`` for every query, each enumerated alone."""
    return oracle.cover(spec.context, spec.target, spec.guards,
                        lambda known, want: chance(spec.variables, known, want, budget))


def query_spec(ell=1, s=2):
    """The attack-run spec with one hash query H('0...0'.a.b) in the context."""
    spec = oracle.builtin_guard_spec("attack-run", ell=ell, secret_bits=s)
    query = Hash(Concat((Lit("0" * s), Var("a"), Var("b"))), 2 * ell)
    return GuardSpec(spec.variables, spec.context + (query,), spec.target, spec.guards)


@st.composite
def guard_specs(draw):
    """Guard specs over 1 to 3 variables of 1 to 2 bits and 1 to 4 hash
    nodes, nested, shared and colliding as in ``hash_scenarios``, at most
    12 bits in all.  Guards may hold a guard-only node whose argument is a
    context term, which the context pins."""
    decls, knowns, targets = draw(hash_scenarios())
    context = (knowns + targets[1:])[:3] or [Var(decls[0][0])]
    plain = [e for e in context if not isinstance(e, KernelMask)]
    terms = st.one_of(st.sampled_from(context), st.just(targets[0]),
                      st.sampled_from([w for _, w in decls]).flatmap(lambda w: bit_exprs(decls, w, 1)))
    if plain:
        pinned = draw(st.sampled_from(plain))
        guard_only = Hash(pinned, draw(st.sampled_from([max(walked_width(decls, pinned), 1), 2])))
        terms = st.one_of(terms, st.just(guard_only), st.just(Negate(guard_only)))
    guards = draw(st.lists(st.lists(terms, min_size=1, max_size=2).map(tuple), min_size=1, max_size=2))
    spec = GuardSpec(decls, tuple(context), targets[0], tuple(guards))
    shown = (*spec.context, spec.target, *(e for g in spec.guards for e in g))
    used = set().union(*(exprs.free_vars(e) for e in shown))
    nodes = {id(n): n for e in shown for n in exprs.hash_nodes(e)}.values()
    assume(sum(b for n, b in decls if n in used) + sum(n.out_bits for n in nodes) <= 12)
    return spec


@settings(max_examples=150, deadline=None)
@given(guard_specs())
def test_shared_table_matches_per_query_cover(spec):
    assert check_prob_guard(spec) == per_query_cover(spec)


@settings(max_examples=150, deadline=None)
@given(guard_specs())
def test_guard_truth_tables_match_the_restart_reference(spec):
    assert check_prob_guard(spec) == oracle.cover(spec.context, spec.target, spec.guards,
                                                  partial(restart_chance, spec.variables))


def test_shared_table_matches_per_query_cover_on_fixed_specs():
    a, b = Var("a"), Var("b")
    first, second = Hash(a, 1), Hash(b, 1)  # collide when a = b
    colliding = GuardSpec((("a", 1), ("b", 1)), (first, a, b), second, ((first,), (a, Hash(a, 2))))
    for spec in (oracle.builtin_guard_spec("attack-run"), oracle.builtin_guard_spec("early-run"),
                 query_spec(), colliding):
        assert check_prob_guard(spec) == per_query_cover(spec)


def test_shared_table_falls_back_per_query():
    # a 30-bit hash-free spec factorises query by query
    u, w = Var("u"), Var("w")
    wide = GuardSpec((("u", 30), ("w", 1)), (u, Negate(w)), u, ((u,), (w,)))
    report = check_prob_guard(wide)
    assert report == per_query_cover(wide) and report.ok
    assert report.baseline == Fraction(1, 2**30)
    # a hash spec over the budget as a whole, whose asked queries fit it:
    # v's guard is never asked, since no subset has an advantage
    v, c = Var("v"), Var("c")
    split = GuardSpec((("u", 10), ("v", 14), ("c", 1)), (u,), Hash(c, 2), ((v,),))
    report = check_prob_guard(split)
    assert report == per_query_cover(split) and report.ok
    assert all(r.exempt for r in report.rows)
    # a hash entry is variable bits: Hash(u, 4) is four one-bit components
    wide_hash = GuardSpec((("u", 24), ("c", 1)), (c,), Hash(u, 4), ((u,),))
    report = check_prob_guard(wide_hash)
    assert report == per_query_cover(wide_hash) and report.ok
    assert report.baseline == Fraction(1, 16)
    # a query over the budget raises as before: colliding nodes whose
    # muxed entries and arguments make one 28-bit component, and a chained
    # 30-bit component
    colliding = GuardSpec((("u", 12), ("v", 12)), (Hash(v, 2),), Hash(u, 2), ((v,),))
    with pytest.raises(BudgetExceededError) as err:
        check_prob_guard(colliding)
    assert err.value.required_bits == 28
    rotated = Concat((Proj(u, 2, 30), Proj(u, 1, 1)))
    chained = GuardSpec((("u", 30),), (u,), BoxPlus(u, Concat((u, rotated))), ((u,),))
    with pytest.raises(BudgetExceededError) as err:
        check_prob_guard(chained)
    assert err.value.required_bits == 30


# --- one pass per check ------------------------------------------------------------


def splits(terms):
    """Every (knowns, targets) pair of disjoint subsets of ``terms``, with
    targets not empty."""
    for sides in itertools.product("-kt", repeat=len(terms)):
        targets = [e for e, side in zip(terms, sides) if side == "t"]
        if targets:
            yield [e for e, side in zip(terms, sides) if side == "k"], targets


@settings(max_examples=150, deadline=None)
@given(st.one_of(hash_scenarios(), hash_free_scenarios()))
# a knows H(a), which H(b) reads when a = b: pinning another query's node
# would hand the guesser of H(b) from a that free query (3/4, not 1/2)
@example(((("a", 1), ("b", 1)), [Var("a"), Hash(Var("a"), 1)], [Hash(Var("b"), 1)]))
def test_one_pass_answers_every_split_as_chance_does(scenario):
    decls, knowns, targets = scenario
    shown = [*knowns, *targets]
    assume(table_bits(decls, shown) <= 12)
    chance_of = oracle.chances(decls, shown)
    for ks, ts in splits(shown):
        assert chance_of(ks, ts) == chance(decls, ks, ts), (ks, ts)


def chained(e, n):
    """A selection whose bit i reads bits i and i - 1 of the n-bit ``e``:
    the n bits are one component."""
    rotated = Concat((Proj(e, 2, n), Proj(e, 1, 1)))
    return BoxPlus(e, Concat((e, rotated)))


def test_one_pass_raises_where_the_queries_asked_alone_raise():
    u, v = Var("u"), Var("v")
    wide, pair = (("u", 30),), (("u", 12), ("v", 12))
    # (decls, xi, gamma, theta, required bits): a 30-bit component in the
    # first query, in the second, and nodes that may collide in the second
    # (one 28-bit component of both arguments and the muxed entries); the
    # union is the third query's terms
    cases = [
        (wide, (), (chained(u, 30),), (u,), 30),
        (wide, (), (u,), (chained(u, 30),), 30),
        (pair, (), (Hash(v, 2),), (Hash(u, 2),), 28),
    ]
    for decls, xi, gamma, theta, bits in cases:
        with pytest.raises(BudgetExceededError) as err:
            check_subbayes(decls, xi, gamma, theta)
        assert err.value.required_bits == bits
        for knowns, targets in ((xi, gamma), (xi + gamma, theta)):
            try:
                chance(decls, knowns, targets)
            except BudgetExceededError as alone:
                assert alone.required_bits == bits
                break
        else:
            pytest.fail("no query raises alone")
    for scenario, bits in ((GuessScenario(wide, (), (chained(u, 30),)), 30),
                           (GuessScenario(pair, (Hash(v, 2),), (Hash(u, 2),)), 28)):
        for check in (lambda s: chance(s.variables, s.knowns, s.targets) - chance(s.variables, (), s.targets),
                      guess_chance):
            with pytest.raises(BudgetExceededError) as err:
                check(scenario)
            assert err.value.required_bits == bits


def test_a_union_over_the_budget_is_asked_query_by_query():
    u, v, w = Var("u"), Var("v"), Var("w")
    # nodes that may collide: both arguments and the muxed entries make
    # one 28-bit component
    pair = (("u", 12), ("v", 12))
    hu, hv = Hash(u, 2), Hash(v, 2)
    # two 13- and 14-bit chains that share w's bit 13: one 26-bit component
    low, high = Proj(w, 1, 13), Proj(w, 13, 26)
    halves = ((("w", 26),), chained(low, 13), chained(high, 14))
    for decls, first, second in ((pair, hu, hv), halves):
        shown = [first, second, *(Var(n) for n, _ in decls)]
        assert pass_over(GuessScenario(decls, (), tuple(shown))).func is chance  # the union is over the budget
        chance_of = oracle.chances(decls, shown)
        for ks, ts in splits(shown):
            try:
                want = chance(decls, ks, ts)
            except BudgetExceededError as alone:
                with pytest.raises(BudgetExceededError) as err:
                    chance_of(ks, ts)
                assert err.value.required_bits == alone.required_bits
                continue
            assert chance_of(ks, ts) == want


def test_one_pass_validates_as_the_queries_do():
    u, v = Var("u"), Var("v")
    twice = (("u", 1), ("u", 2))
    mismatched = BoxPlus(u, v)  # v must be twice u's width
    with pytest.raises(ValueError, match="duplicate"):
        check_subbayes(twice, (), (u,), (u,))
    with pytest.raises(ValueError, match="duplicate"):
        oracle.chances(twice, [u])
    with pytest.raises(ValueError, match="twice"):
        check_subbayes((("u", 1), ("v", 1)), (), (u,), (mismatched,))
    with pytest.raises(ValueError, match="twice"):
        oracle.chances({"u": 1, "v": 1}, [u, mismatched])
    with pytest.raises(ValueError, match="twice"):
        chance((("u", 1), ("v", 1)), (mismatched,), (u,))


def test_each_check_enumerates_once(monkeypatch):
    # a check that asks several chances over one declaration reads them
    # off at most one pass, and builds none when every term is plain: a
    # regression to one pass per query shows here
    passes = []
    real = oracle._TruthTables.__init__
    monkeypatch.setattr(oracle._TruthTables, "__init__", lambda *args: passes.append(args) or real(*args))

    def count(check, *args):
        passes.clear()
        check(*args)
        return len(passes)

    rng = random.Random(5)
    kinds = set()
    for _ in range(20):
        case = oracle.random_subbayes_case(rng)
        for decls, xi, gamma, theta in (case, hashed_case(case)):
            plain = is_plain(decls, xi + gamma, theta)
            kinds.add(plain)
            assert count(check_subbayes, decls, xi, gamma, theta) == (not plain)
            assert count(oracle.chances, decls, xi + gamma + theta) == (not plain)
    assert kinds == {True, False}
    assert count(check_prob_guard, oracle.builtin_guard_spec("attack-run")) == 1
    for ell in (1, 2, 3):
        assert count(cli._claim_prop34, ell) == 1
        assert count(cli._claim_hamming, ell) == 0
        assert count(cli._claim_kernel, ell) == 0


# --- the query regime -------------------------------------------------------------


@pytest.mark.parametrize("ell, s, value", [(1, 1, Fraction(3, 4)), (1, 2, Fraction(5, 8)),
                                           (2, 1, Fraction(5, 8))])
def test_one_hash_query_gives_the_secret_guess_value(ell, s, value):
    # the chance is the best of a guesser that makes no hash queries of its
    # own; a query is a known hash node whose argument the guesser fixed
    sv, a, b, x = Var("s"), Var("a"), Var("b"), Var("x")
    token = Hash(Concat((sv, a, b)), 2 * ell)
    query = Hash(Concat((Lit("0" * s), a, b)), 2 * ell)
    decls = {"s": s, "a": ell, "b": ell, "x": ell}
    hit = Fraction(1, 2**s)
    assert chance(decls, [x, a, b], [BoxPlus(x, token)]) == Fraction(1, 2**ell)
    assert chance(decls, [x, a, b, query], [BoxPlus(x, token)]) == \
        hit + (1 - hit) * Fraction(1, 2**ell) == value == \
        oracle.analytic("secret-guess", ell=ell, secret_bits=s) == \
        harness.analytic_acceptance("secret-guess", ProtocolConfig(ell=ell, secret_bits=s))


def test_every_candidate_query_beats_one():
    # a plurality vote over all four candidate tokens at l = 1, s = 2
    sv, a, b, x = Var("s"), Var("a"), Var("b"), Var("x")
    token = Hash(Concat((sv, a, b)), 2)
    queries = [Hash(Concat((lit(q, 2), a, b)), 2) for q in range(4)]
    decls = {"s": 2, "a": 1, "b": 1, "x": 1}
    assert chance(decls, [x, a, b, *queries], [BoxPlus(x, token)]) == Fraction(11, 16)


def test_one_query_breaks_attack_run_coverage_by_the_query_slack():
    # criterion 07 is a zero-query statement: the bundled attack-run spec
    # is covered, and one hash query in the context breaks coverage on
    # exactly the 16 subsets that hold the query but neither s nor z boxplus h
    assert check_prob_guard(oracle.builtin_guard_spec("attack-run")).ok
    spec = query_spec()
    report = check_prob_guard(spec)
    assert not report.ok
    s_at, zh_at, query_at = 0, 5, len(spec.context) - 1
    failing = {r.subset for r in report.rows if not r.ok}
    assert failing == {r.subset for r in report.rows
                       if query_at in r.subset and s_at not in r.subset and zh_at not in r.subset}
    assert len(failing) == 16
    row = next(r for r in report.rows if r.subset == (1, 2, 3, query_at))  # a, b, x, query
    assert (row.lhs, row.rhs) == (Fraction(5, 8), Fraction(27, 64))


# --- product inequality ------------------------------------------------------


def test_product_inequality_on_random_scenarios():
    rng = random.Random(5)
    for _ in range(15):
        decls, xi, gamma, theta = oracle.random_subbayes_case(rng)
        rep = check_subbayes(decls, xi, gamma, theta)
        assert rep.holds, (decls, xi, gamma, theta)
        assert rep.lhs == rep.lhs_first * rep.lhs_second


def hashed_case(case):
    """A corpus case with gamma's and theta's first terms hashed; the two
    nodes may collide when their arguments are of equal widths."""
    decls, xi, gamma, theta = case
    return decls, xi, (Hash(gamma[0], walked_width(decls, gamma[0])),) + gamma[1:], (Hash(theta[0], 2),) + theta[1:]


def test_subbayes_reads_the_chances_the_queries_give_alone():
    # 150 corpus cases from each of two seeds, each as drawn and hashed
    for seed in (5, 7):
        rng = random.Random(seed)
        for _ in range(150):
            case = oracle.random_subbayes_case(rng)
            for decls, xi, gamma, theta in (case, hashed_case(case)):
                rep = check_subbayes(decls, xi, gamma, theta)
                assert (rep.lhs_first, rep.lhs_second, rep.rhs) == (
                    chance(decls, xi, gamma), chance(decls, xi + gamma, theta),
                    chance(decls, xi, gamma + theta))


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


def test_product_inequality_counterexample():
    # min-entropy has no chain rule: the joint guess beats the product
    v0, v1 = Var("v0"), Var("v1")
    case = ((("v0", 2), ("v1", 2)), (),
            (BoxPlus(Negate(v0), Concat((v1, Lit("10")))), Lit("01")), (v0,))
    rep = check_subbayes(*case)
    assert rep.holds is False
    assert (rep.lhs_first, rep.lhs_second) == (Fraction(9, 16), Fraction(9, 16))
    assert rep.lhs == Fraction(81, 256) > rep.rhs == Fraction(1, 4)
    # the draw README cites
    rng = random.Random(21)
    for _ in range(636):
        oracle.random_subbayes_case(rng)
    assert oracle.random_subbayes_case(rng) == case


def test_product_inequality_overlapping_case():
    # context and targets share a variable: no equality promise, but the
    # inequality itself still holds
    u = Var("u")
    rep = check_subbayes(
        (("u", 2),), (Proj(u, 1, 1),), (Proj(u, 2, 2),), (u,)
    )
    assert not rep.disjoint
    assert rep.holds


def subbayes_reference(decls, xi, gamma, theta, budget):
    """``check_subbayes`` as three reads of one ``chances`` pass, with the
    flags from a name set per term and ``hash_nodes``."""
    chance_of = oracle.chances(decls, xi + gamma + theta, budget)
    a, b, rhs = chance_of(xi, gamma), chance_of(xi + gamma, theta), chance_of(xi, gamma + theta)
    fv_xi, fv_gamma, fv_theta = (set().union(*map(exprs.free_vars, es)) for es in (xi, gamma, theta))
    shared_table = any(exprs.hash_nodes(e) for e in theta) and any(exprs.hash_nodes(e) for e in xi + gamma)
    return oracle.SubbayesReport(a, b, rhs, a * b <= rhs, not fv_xi & fv_theta, a * b == rhs,
                                 not (fv_xi | fv_gamma) & fv_theta and not shared_table)


@st.composite
def subbayes_cases(draw):
    """Corpus cases of 4 to 12 bits, and cases of slices of an n-bit
    variable and its ``chained`` selection, one component of up to n bits
    for n in 2..9; in half of them gamma's and theta's first terms are
    hashed (``hashed_case``)."""
    if draw(st.booleans()):
        case = oracle.random_subbayes_case(draw(st.randoms(use_true_random=False)), draw(st.integers(4, 12)))
    else:
        n, w = draw(st.integers(2, 9)), Var("w")
        ends = st.tuples(st.integers(1, n), st.integers(1, n)).map(sorted)
        part = st.builds(lambda e, lo_hi: Proj(e, *lo_hi), st.sampled_from([w, chained(w, n)]), ends)
        case = ((("w", n),), *(tuple(draw(st.lists(part, min_size=lo, max_size=2))) for lo in (0, 1, 1)))
    return hashed_case(case) if draw(st.booleans()) else case


v0, v1, wide = Var("v0"), Var("v1"), Var("w")


@settings(max_examples=300, deadline=None)
@given(subbayes_cases(), st.sampled_from([3, 5, oracle.DEFAULT_BUDGET]))
@example(((("v0", 2), ("v1", 1)), (), (chained(v0, 2),), (v0, v1)), oracle.DEFAULT_BUDGET)  # empty xi
# theta names v0, which xi reads, but reads only v1's bit
@example(((("v0", 1), ("v1", 1)), (v0,), (Negate(v1),), (Proj(Concat((v0, v1)), 1, 1),)),
         oracle.DEFAULT_BUDGET)
@example(((("a0", 1), ("a1", 1), ("b1", 1)), (), (Hash(Var("a0"), 1), Hash(Var("a1"), 1)),
          (Hash(Var("b1"), 1),)), oracle.DEFAULT_BUDGET)  # the docstring's shared table
# one 8-bit component read by 19 tables: past the mask regime
@example(((("w", 8),), (Proj(wide, 1, 3),), (chained(wide, 8),), (wide,)), oracle.DEFAULT_BUDGET)
@example(((("w", 8),), (), (chained(wide, 8),), (wide,)), 7)  # a pass over the budget
def test_subbayes_matches_three_reads_of_its_pass(case, budget):
    def outcome(check):
        try:
            return check(*case, budget)
        except BudgetExceededError as err:
            return "over budget", err.required_bits

    assert outcome(check_subbayes) == outcome(subbayes_reference)


def test_a_hash_free_pass_reads_the_product_rule_off_one_split(monkeypatch):
    # the third case of the seed-1 corpus has a 3-bit component; hashed, it
    # has classes to pin, and a component of 8 bits read by 19 tables is
    # past the mask regime: both ask the pass three queries
    rng = random.Random(1)
    case = [oracle.random_subbayes_case(rng) for _ in range(3)][-1]
    decls, xi, gamma, theta = case
    assert not any(exprs.hash_nodes(e) for e in xi + gamma + theta)
    assert 3 in pass_over(GuessScenario(decls, xi + gamma, theta)).widths
    past = ((("w", 8),), (Proj(wide, 1, 3),), (chained(wide, 8),), (wide,))
    want = [subbayes_reference(*c, oracle.DEFAULT_BUDGET) for c in (case, hashed_case(case), past)]
    calls = Counter()
    real_chance, real_best = oracle._TruthTables.__call__, oracle._best_rows

    def chance_spy(self, knowns, targets):
        calls["chance"] += 1
        return real_chance(self, knowns, targets)

    def best_spy(*args):
        calls["_best_rows"] += 1
        return real_best(*args)

    monkeypatch.setattr(oracle._TruthTables, "__call__", chance_spy)
    monkeypatch.setattr(oracle, "_best_rows", best_spy)
    assert check_subbayes(*case) == want[0]
    assert calls == {}
    for other, value in zip((hashed_case(case), past), want[1:]):
        calls.clear()
        assert check_subbayes(*other) == value
        assert calls["chance"] == 3 and calls["_best_rows"] > 0


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
    spec = oracle.builtin_guard_spec("attack-run")
    again = GuardSpec.from_json(spec.to_json())
    assert again == spec
    assert again.variables == spec.variables
    assert exprs.render(again.target) == exprs.render(spec.target)
    assert [
        [exprs.render(g) for g in group] for group in again.guards
    ] == [[exprs.render(g) for g in group] for group in spec.guards]
    assert check_prob_guard(again).ok
    with pytest.raises(ValueError):
        oracle.builtin_guard_spec("no-such-spec")


@pytest.mark.parametrize("name", ["attack-run", "early-run"])
@pytest.mark.parametrize("ell, s", [(1, 2), (2, 3), (8, 256)])
def test_builtin_specs_survive_a_json_roundtrip_as_equal_values(name, ell, s):
    # parsing builds a fresh H(s.a.b) wherever the spec shows it; the copies
    # are equal values, so they are one hash class and share cover's asks
    spec = oracle.builtin_guard_spec(name, ell=ell, secret_bits=s)
    again = GuardSpec.from_json(spec.to_json())
    assert again == spec and hash(again) == hash(spec)
    shown = (*again.context, again.target, *(e for g in again.guards for e in g))
    nodes = [n for e in shown for n in exprs.hash_nodes(e)]
    assert len(nodes) == (3 if name == "attack-run" else 2) and len(set(nodes)) == 1
    assert check_prob_guard(again) == check_prob_guard(spec)


@st.composite
def random_exprs(draw):
    """An expression of ``oracle._random_expr`` over 1 to 3 variables of 1 to 4 bits."""
    decls = [(f"v{i}", w) for i, w in enumerate(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))]
    rng = draw(st.randoms(use_true_random=False))
    return oracle._random_expr(rng, decls, draw(st.integers(1, 4)), draw(st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(random_exprs())
@example(Hash(Concat((Var("s"), Hash(Lit("01"), 2))), 4))
@example(KernelMask(Proj(Var("x"), 1, 2), Negate(Var("h"))))
@example(Lit(""))
@example(Concat(()))
def test_every_expression_node_survives_a_json_roundtrip(e):
    assert exprs.from_json(json.loads(json.dumps(exprs.to_json(e)))) == e


# --- closed forms -------------------------------------------------------------


def test_binomial_identity_range():
    for ell in range(21):
        lhs, rhs, equal = binomial_identity_check(ell)
        assert equal and lhs == rhs == Fraction(3, 2) ** ell
    with pytest.raises(ValueError):
        binomial_identity_check(-1)
    for ell in (True, 1.5, "2"):  # a width, as analytic's parameters are
        with pytest.raises(ValueError, match=f"claim 'binomial' needs parameter 'ell' to be an int >= 0, not {ell!r}"):
            binomial_identity_check(ell)


def test_binomial_identity_sums_over_one_denominator():
    # the left side is the sum of C(ell, i) * 2**-i, term by term
    for ell in range(61):
        lhs, rhs, equal = binomial_identity_check(ell)
        assert lhs == sum(Fraction(math.comb(ell, i), 2**i) for i in range(ell + 1))
        assert rhs == Fraction(3, 2) ** ell and equal


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
    # every parameter is a width: an int, not a bool, of at least 0
    bad = [("naive", {"ell": -1}, "ell"), ("early", {"ell": -1}, "ell"), ("monty", {"ell": -2}, "ell"),
           ("naive", {"ell": 1.5}, "ell"), ("hamming", {"delta": True}, "delta"),
           ("hamming", {"delta": -1}, "delta"), ("kernel", {"kappa": -1, "ell": 2}, "kappa"),
           ("kernel", {"kappa": 1, "ell": 2.0}, "ell"), ("prequery", {"ell": "3"}, "ell"),
           ("secret-guess", {"ell": 2, "secret_bits": -1}, "secret_bits"),
           ("secret-guess", {"ell": False, "secret_bits": 2}, "ell")]
    for claim, params, name in bad:
        with pytest.raises(ValueError, match=f"claim '{claim}' needs parameter '{name}'"):
            analytic(claim, **params)
    assert analytic("naive", ell=0) == analytic("hamming", delta=0) == analytic("kernel", kappa=0, ell=0) == 1
    assert analytic("secret-guess", ell=0, secret_bits=0) == 1
    assert analytic("monty", ell=2, secret_bits=-1) == Fraction(9, 16)  # a parameter a claim does not use
