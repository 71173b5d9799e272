"""Exact guessing-chance enumeration: worked values and the laws behind them.

The distance law and its iff, the kernel chance, the stick value, the
hash-pinning rule, the one-query values, and the product inequality are
each pinned here on small instances where complete enumeration is
undeniable; the node-order hash fill is held to the restart-on-miss
enumeration it replaced, and the guard checker's one shared table to
chances enumerated query by query.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hkbound import cli, exprs, harness, oracle
from hkbound.bits import BitString
from hkbound.exprs import BoxPlus, Concat, Hash, KernelMask, Lit, Negate, Proj, Var
from hkbound.hkfun import ResponseToken
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
    # nodes that may collide are counted in the leaf table, whose
    # variable and entry bits B + H all count
    pair = [Hash(Var("a"), 2), Hash(Var("b"), 2)]
    with pytest.raises(BudgetExceededError) as err:
        chance({"a": 1, "b": 1}, [], pair, budget=5)
    assert err.value.required_bits == 6
    assert chance({"a": 1, "b": 1}, [], pair, budget=6) == Fraction(5, 32)
    # unused variables cost nothing
    assert chance({"u": 2, "w": 100}, [], [Var("u")], budget=24) == Fraction(1, 4)


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
        kappa = ResponseToken.from_bits(BitString(64, raw)).kernel().bit_count()
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
    leaves = [leaf for env in oracle._envs(var_order)
              for leaf in restart_leaves(knowns, targets, env)]
    groups: dict = {}
    for key, (_v, w, _argrec, _htable, extra) in zip(restart_pin(leaves, nodes), leaves):
        slot = groups.setdefault(key, {})
        slot[w] = slot.get(w, 0) + (1 << (hash_bits - extra))
    return Fraction(oracle._best(groups), 1 << (total_bits + hash_bits))


def may_collide(decls, es) -> bool:
    """Whether two hash nodes of unequal arguments have arguments of equal
    width and outputs of equal width, so that their entries may be one."""
    shapes = {repr(n): (exprs.width(n.arg, dict(decls)), n.out_bits)
              for e in es for n in exprs.hash_nodes(e)}
    return len(set(shapes.values())) < len(shapes)


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
def test_hash_path_matches_the_restart_reference(scenario, budget):
    decls, knowns, targets = scenario

    def outcome(engine, budget):
        try:
            return engine(decls, knowns, targets, budget=budget)
        except BudgetExceededError as err:
            return "over budget", err.required_bits

    got, want = outcome(chance, budget), outcome(restart_chance, budget)
    if got != want:
        # without possible collisions the budget caps the widest component,
        # which B + H bounds: the reference raises wherever the engine does
        assert want[0] == "over budget" and not may_collide(decls, knowns + targets)
        if isinstance(got, tuple):
            assert got[1] < want[1]
        else:
            assert got == outcome(restart_chance, oracle.DEFAULT_BUDGET)


# --- truth tables against the leaf table ----------------------------------------


def table_chance(decls, knowns, targets):
    """The chance read off the leaf table, which enumerates every variable
    and table-entry bit at once and counts collisions."""
    table = oracle._table(decls, tuple(knowns) + tuple(targets), oracle.DEFAULT_BUDGET)
    return oracle._project(table, knowns, targets)


def table_bits(decls, es) -> int:
    """B + H of the leaf table over ``es``."""
    used = set().union(*(exprs.free_vars(e) for e in es))
    nodes = {id(n): n for e in es for n in exprs.hash_nodes(e)}.values()
    return sum(b for n, b in decls if n in used) + sum(n.out_bits for n in nodes)


@settings(max_examples=150, deadline=None)
@given(hash_scenarios())
def test_truth_tables_match_the_leaf_table(scenario):
    decls, knowns, targets = scenario
    assume(table_bits(decls, knowns + targets) <= 14)
    assert chance(decls, knowns, targets) == table_chance(decls, knowns, targets)


def test_truth_tables_match_the_leaf_table_on_fixed_shapes():
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
    ]
    for knowns, targets, value in cases:
        assert not may_collide(decls, knowns + targets)
        got = chance(decls, knowns, targets)
        assert got == table_chance(decls, knowns, targets) == restart_chance(decls, knowns, targets)
        assert got == value, (knowns, targets)


def test_a_component_wider_than_one_chunk_matches_the_reference():
    # u's bits chain into one component, counted over several chunks of rows
    n = oracle.CHUNK_BITS + 1
    u = Var("u")
    rotated = Concat((Proj(u, 2, n), Proj(u, 1, 1)))
    chained = BoxPlus(u, Concat((u, rotated)))  # bit i reads u_i and u_(i-1)
    decls = (("u", n),)
    knowns, targets = [Proj(u, 1, 4), KernelMask(Proj(u, 5, 5), Proj(chained, 1, 2))], [chained]
    assert chance(decls, knowns, targets) == reference_chance(decls, knowns, targets)


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
        width_of = exprs.width(pinned, dict(decls))
        guard_only = Hash(pinned, draw(st.sampled_from([max(width_of, 1), 2])))
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
def test_guard_truth_tables_match_the_leaf_table(spec):
    shown = (*spec.context, spec.target, *(e for g in spec.guards for e in g))
    table = oracle._table(spec.variables, shown, oracle.DEFAULT_BUDGET)
    assert check_prob_guard(spec) == oracle.cover(spec.context, spec.target, spec.guards,
                                                  partial(oracle._project, table))


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
    # a query over the budget raises as before: colliding nodes over B + H,
    # and a chained 30-bit component
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
    # (B + H = 28); the union is the third query's terms
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
        for check in (advantage, flow_independent, guess_chance):
            with pytest.raises(BudgetExceededError) as err:
                check(scenario)
            assert err.value.required_bits == bits


def test_a_union_over_the_budget_is_asked_query_by_query():
    u, v, w = Var("u"), Var("v"), Var("w")
    # nodes that may collide: the leaf table over both is 28 bits
    pair = (("u", 12), ("v", 12))
    hu, hv = Hash(u, 2), Hash(v, 2)
    # two 13- and 14-bit chains that share w's bit 13: one 26-bit component
    low, high = Proj(w, 1, 13), Proj(w, 13, 26)
    halves = ((("w", 26),), chained(low, 13), chained(high, 14))
    for decls, first, second in ((pair, hu, hv), halves):
        shown = [first, second, *(Var(n) for n, _ in decls)]
        with pytest.raises(BudgetExceededError):
            oracle._enumerate(decls, shown, oracle.DEFAULT_BUDGET)
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
        advantage(GuessScenario((("u", 1), ("v", 1)), (mismatched,), (u,)))


def test_each_check_enumerates_once(monkeypatch):
    # a check that asks several chances over one declaration reads them
    # off one pass: a regression to one pass per query shows here
    passes = []
    real = oracle._enumerate
    monkeypatch.setattr(oracle, "_enumerate", lambda *args: passes.append(args) or real(*args))

    def count(check, *args):
        passes.clear()
        check(*args)
        return len(passes)

    rng = random.Random(5)
    for _ in range(20):
        case = oracle.random_subbayes_case(rng)
        assert count(check_subbayes, *case) == count(check_subbayes, *hashed_case(case)) == 1
    decls, xi, gamma, theta = case
    assert count(advantage, GuessScenario(decls, xi + gamma, theta)) == 1
    assert count(check_prob_guard, oracle.builtin_guard_spec("attack-run")) == 1
    for ell in (1, 2, 3):
        assert count(cli._claim_prop34, ell) == 1 << ell  # one per z
        assert count(cli._claim_hamming, ell) == 1
        assert count(cli._claim_kernel, ell) == 1


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
    arg_bits = exprs.width(gamma[0], dict(decls))
    return decls, xi, (Hash(gamma[0], arg_bits),) + gamma[1:], (Hash(theta[0], 2),) + theta[1:]


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
