"""Exact guessing chances by complete enumeration.

The central quantity: given expressions the guesser observes (knowns)
and expressions it must reproduce (targets), both over uniformly random
bitstring variables, the guessing chance is

    (1 / 2**B) * sum over observed values v of
                 max over target values w of #{env : knowns=v, targets=w}

where B counts the bits of the variables that actually occur.  This is
the best success probability of any guesser that maps observations to a
single answer; randomized guessers cannot beat it because their success
probability is a convex combination of deterministic ones.

Hash applications extend the environment: each distinct argument value
indexes an independent uniform table entry, enumerated lazily, and
collisions between entries are counted rather than assumed away.  The
hash itself is public, so a guesser whose observations pin down an
argument value is credited with knowing that table entry as well.  The
entry augments the grouping key exactly when the observed values
determine the argument (computed as a fixpoint, since one entry may pin
down the argument of the next).  Without this rule a guesser knowing
the secret and both counters would not be able to "compute" the session
token, and every full-knowledge chance would come out wrong.

A second, stricter regime is available on request: the guesser may only
answer with values it can actually compute from its observations by the
public bit operations.  That restricted chance is never above the
unrestricted one, and the two agree exactly when some optimal answer is
itself computable, which is what separates "the data determines the
value" from "the guesser can produce the value".

Everything returns exact fractions; nothing here samples.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from . import exprs
from .bits import BitString
from .exprs import Expr, NeedHash, evaluate, free_vars, hash_nodes, width
from .hkfun import PartitionedFunction, eval_partitioned

DEFAULT_BUDGET = 24


class BudgetExceededError(ValueError):
    """Enumeration would need more environment bits than allowed."""

    def __init__(self, required_bits: int, budget: int):
        self.required_bits = required_bits
        self.budget = budget
        super().__init__(
            f"scenario needs {required_bits} environment bits, over the {budget}-bit budget"
        )


@dataclass(frozen=True)
class GuessScenario:
    """Variable declarations plus known and target expression lists."""

    variables: tuple[tuple[str, int], ...]
    knowns: tuple[Expr, ...]
    targets: tuple[Expr, ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable declaration")
        for _, bits in self.variables:
            if bits < 0:
                raise ValueError("variable width must be >= 0")
        decls = dict(self.variables)
        for e in self.knowns + self.targets:
            width(e, decls)

    @property
    def declared(self) -> dict[str, int]:
        return dict(self.variables)


def _env_iter(var_order: list[tuple[str, int]]):
    """Every environment, each variable uniform over its width."""
    widths = [b for _, b in var_order]
    names = [n for n, _ in var_order]
    for idx in range(1 << sum(widths)):
        env = {}
        rest = idx
        for name, b in zip(reversed(names), reversed(widths)):
            env[name] = (b, rest & ((1 << b) - 1))
            rest >>= b
        yield env


def _leaves(knowns: Sequence[Expr], targets: Sequence[Expr], env: dict):
    """All hash-table completions of one environment.

    Yields (known_values, target_values, argrec, htable, extra_bits)
    where extra_bits counts the lazily enumerated table bits.
    """
    stack = [({}, 0)]
    while stack:
        htable, extra = stack.pop()
        argrec: dict[int, tuple] = {}
        try:
            v = tuple(evaluate(e, env, htable, argrec) for e in knowns)
            w = tuple(evaluate(e, env, htable, argrec) for e in targets)
        except NeedHash as miss:
            for out in range(1 << miss.out_bits):
                ext = dict(htable)
                ext[miss.key] = out
                stack.append((ext, extra + miss.out_bits))
            continue
        yield v, w, argrec, htable, extra


def _pin_hash_entries(leaves: list, nodes: list) -> list:
    """Augment observation keys with table entries the guesser can query.

    A node's entry joins the key once the current key determines the
    node's argument value in every group; iterate to a fixpoint so that
    chains of hashes resolve in order.
    """
    keys = [leaf[0] for leaf in leaves]  # start from the known values
    remaining = [id(n) for n in nodes]
    while remaining:
        progressed = False
        for nid in list(remaining):
            groups: dict = {}
            for key, leaf in zip(keys, leaves):
                groups.setdefault(key, set()).add(leaf[2].get(nid))
            if all(len(args) == 1 for args in groups.values()):
                keys = [
                    key + (((leaf[2][nid][2], leaf[3][leaf[2][nid]]),)
                           if leaf[2].get(nid) is not None else (None,))
                    for key, leaf in zip(keys, leaves)
                ]
                remaining.remove(nid)
                progressed = True
        if not progressed:
            break
    return keys


def _best(groups: dict, max_bits: int | None = None) -> int:
    """Sum over observation groups of the heaviest answer's weight.

    ``groups`` maps an observation key to {answer: weight}.  Given
    ``max_bits``, only answers computable from the key's values count,
    and a group with none scores zero.  The guesser computes with
    negation, contiguous slices, concatenation up to max_bits wide, and
    challenge selection; masked values and absent table entries are not
    fed back in.  From any plain observed value of non-zero width, a
    1-bit slice and its negation give both bits, and concatenation then
    builds every value 1 to max_bits wide.  So an answer is computable
    when each of its values is observed, or is plain and 1 to max_bits
    wide while some plain observed value has non-zero width.
    """
    if max_bits is None:
        return sum(max(slot.values()) for slot in groups.values())
    best = 0
    for key, slot in groups.items():
        seen = {v for v in key if isinstance(v, tuple) and len(v) == 2}
        wide = max_bits if any(n for n, _ in seen) else 0
        best += max(
            (c for w, c in slot.items()
             if all(v in seen or (len(v) == 2 and 0 < v[0] <= wide) for v in w)),
            default=0,
        )
    return best


def guess_chance(
    scenario: GuessScenario,
    budget: int = DEFAULT_BUDGET,
    derivable_only: bool = False,
) -> Fraction:
    """Exact best guessing chance of the targets given the knowns.

    With ``derivable_only`` the guesser must compute its answer from the
    observed values (pinned table entries included) using negation,
    slicing, concatenation, and challenge selection; observation groups
    with no computable candidate score zero.  The restricted value is a
    lower bound on the unrestricted one, with equality exactly when some
    optimal answer is itself computable.  In particular a guesser that
    observed nothing can output nothing, where the unrestricted guesser
    would still name the most likely value cold.

    Outcomes are counted in integer weights over the common denominator
    2**(B + H), where H sums the output widths of the distinct hash
    nodes: a leaf that tabled ``extra`` entry bits weighs 2**(H - extra).
    A leaf reads at most one entry per node, so extra <= H.  Without hash
    nodes H = 0 and each environment weighs 1.
    """
    knowns, targets = scenario.knowns, scenario.targets
    fv = _free_vars_of(knowns + targets)
    var_order = [(n, b) for n, b in scenario.variables if n in fv]
    total_bits = sum(b for _, b in var_order)
    if total_bits > budget:
        raise BudgetExceededError(total_bits, budget)
    nodes = list({id(n): n for e in knowns + targets for n in hash_nodes(e)}.values())
    hash_bits = sum(n.out_bits for n in nodes)

    groups: dict = {}
    if not nodes:
        for env in _env_iter(var_order):
            v = tuple(evaluate(e, env, {}) for e in knowns)
            w = tuple(evaluate(e, env, {}) for e in targets)
            slot = groups.setdefault(v, {})
            slot[w] = slot.get(w, 0) + 1
    else:
        leaves = [leaf for env in _env_iter(var_order) for leaf in _leaves(knowns, targets, env)]
        for key, (_v, w, _argrec, _htable, extra) in zip(_pin_hash_entries(leaves, nodes), leaves):
            slot = groups.setdefault(key, {})
            slot[w] = slot.get(w, 0) + (1 << (hash_bits - extra))
    max_bits = None
    if derivable_only:
        max_bits = 2 * max((width(e, scenario.declared) for e in knowns + targets), default=0)
    return Fraction(_best(groups, max_bits), 1 << (total_bits + hash_bits))


def chance(
    variables,
    knowns: Iterable[Expr],
    targets: Iterable[Expr],
    budget: int = DEFAULT_BUDGET,
    derivable_only: bool = False,
) -> Fraction:
    """Convenience wrapper building the scenario in place.

    ``variables`` may be (name, bits) pairs or a name -> bits mapping.
    """
    if isinstance(variables, Mapping):
        variables = tuple(variables.items())
    return guess_chance(
        GuessScenario(tuple(variables), tuple(knowns), tuple(targets)),
        budget,
        derivable_only,
    )


def advantage(scenario: GuessScenario, budget: int = DEFAULT_BUDGET) -> Fraction:
    """How much the knowns improve on guessing the targets cold."""
    blind = GuessScenario(scenario.variables, (), scenario.targets)
    return guess_chance(scenario, budget) - guess_chance(blind, budget)


def flow_independent(scenario: GuessScenario, budget: int = DEFAULT_BUDGET) -> bool:
    """True when the knowns give no advantage at all."""
    return advantage(scenario, budget) == 0


@dataclass(frozen=True)
class SubbayesReport:
    lhs_first: Fraction
    lhs_second: Fraction
    rhs: Fraction
    holds: bool
    disjoint: bool
    equality: bool
    independent: bool

    @property
    def lhs(self) -> Fraction:
        return self.lhs_first * self.lhs_second


def _free_vars_of(es: Sequence[Expr]) -> set[str]:
    fv: set[str] = set()
    for e in es:
        fv |= free_vars(e)
    return fv


def check_subbayes(
    variables: Sequence[tuple[str, int]],
    xi: Sequence[Expr],
    gamma: Sequence[Expr],
    theta: Sequence[Expr],
    budget: int = DEFAULT_BUDGET,
) -> SubbayesReport:
    """Compare chance(xi -> gamma) * chance(xi,gamma -> theta) with chance(xi -> gamma,theta).

    ``holds`` is the product inequality lhs <= rhs and ``equality`` is
    lhs == rhs.  Two conditions on the expressions are reported beside
    them:

    ``disjoint``: theta shares no variable with xi.  This does not force
    equality.  With xi = (), gamma = ~v1 and theta = boxplus(~v3, v1::'1'),
    theta is v1 when v3 = 1 and 1 when v3 = 0, so lhs = 1/2 * 3/4 = 3/8,
    while the joint guess (v1 = 0, theta = 1) wins with 1/2.

    ``independent``: theta shares no variable with xi or gamma, and theta
    and xi+gamma do not both contain a hash node.  This forces equality.
    The environment is the variables plus the hash-table entries, all
    independent and uniform.  Under the condition, theta is a function of
    one block (its own variables, with the table if it holds the hash
    nodes) and xi, gamma of the other, so (xi, gamma) and theta are
    independent.  Observing xi and gamma says nothing of theta's block, so
    a hash argument in theta is pinned exactly when it is constant, with or
    without them.  Hence
    chance(xi,gamma -> theta) = sum over (xi,gamma) values of
    P(xi,gamma) * max P(theta) = chance(-> theta), and chance(xi ->
    gamma,theta) = chance(xi -> gamma) * chance(-> theta).  The hash
    clause is needed: with 1-bit a0, a1, b1, gamma = (H(a0), H(a1)) and
    theta = H(b1) give lhs = 3/8 * 3/4 = 9/32 but rhs = 5/16, since a
    collision b1 = a0 shares the table entry.
    """
    variables = tuple(variables)
    context = tuple(xi) + tuple(gamma)
    a = chance(variables, xi, gamma, budget)
    b = chance(variables, context, theta, budget)
    rhs = chance(variables, xi, tuple(gamma) + tuple(theta), budget)
    fv_theta = _free_vars_of(theta)
    shared_table = any(hash_nodes(e) for e in theta) and any(hash_nodes(e) for e in context)
    return SubbayesReport(
        lhs_first=a,
        lhs_second=b,
        rhs=rhs,
        holds=a * b <= rhs,
        disjoint=not (_free_vars_of(xi) & fv_theta),
        equality=a * b == rhs,
        independent=not (_free_vars_of(context) & fv_theta) and not shared_table,
    )


@dataclass(frozen=True)
class GuardSpec:
    """A guard-checking instance over one set of variable declarations."""

    variables: tuple[tuple[str, int], ...]
    context: tuple[Expr, ...]
    target: Expr
    guards: tuple[tuple[Expr, ...], ...]

    @classmethod
    def from_json(cls, doc: str | dict) -> "GuardSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        field = exprs.json_field
        guards = field(doc, "guards", list, item=list)
        return cls(
            variables=tuple((field(v, "name", str), field(v, "bits", int))
                            for v in field(doc, "vars", list)),
            context=tuple(exprs.from_json(d) for d in field(doc, "context", list)),
            target=exprs.from_json(field(doc, "target", dict)),
            guards=tuple(tuple(exprs.from_json(d) for d in g) for g in guards),
        )

    def to_json(self) -> dict:
        return {
            "vars": [{"name": n, "bits": b} for n, b in self.variables],
            "context": [exprs.to_json(e) for e in self.context],
            "target": exprs.to_json(self.target),
            "guards": [[exprs.to_json(e) for e in g] for g in self.guards],
        }


@dataclass(frozen=True)
class GuardRow:
    """One context subset, by indices into the context.

    Chances are exact Fractions, or 0/1 ints in the collapsed regime.
    """

    subset: tuple[int, ...]
    lhs: Fraction
    advantage: Fraction
    rhs: Fraction | None
    witness: int | None
    ok: bool
    exempt: bool


@dataclass(frozen=True)
class GuardReport:
    baseline: Fraction
    rows: tuple[GuardRow, ...]
    ok: bool


def context_subsets(n: int):
    """Index tuples of every subset of range(n), smallest first."""
    return itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1))


def cover(context: Sequence, target, guards: Sequence[Sequence], chance_of) -> GuardReport:
    """Quantify over every context subset with positive advantage.

    ``chance_of(known, want)`` is the chance of producing every term of
    ``want`` from the tuple ``known``.  For each subset whose chance of
    the target beats the baseline (the chance from nothing), some guard
    must cover it: chance(subset -> guard) * chance(subset,guard ->
    target) at least as large.  Subsets without advantage are listed
    but exempt.  The witness is the first guard reaching the best cover.
    """
    baseline = chance_of((), (target,))
    rows = []
    for picks in context_subsets(len(context)):
        subset = tuple(context[i] for i in picks)
        lhs = chance_of(subset, (target,))
        adv = lhs - baseline
        if adv <= 0:
            rows.append(GuardRow(picks, lhs, adv, None, None, True, True))
            continue
        best = 0
        witness = None
        for gi, guard in enumerate(guards):
            reach = chance_of(subset, guard)
            then = chance_of(subset + tuple(guard), (target,))
            if reach * then > best:
                best = reach * then
                witness = gi
        rows.append(GuardRow(picks, lhs, adv, best, witness, lhs <= best, False))
    return GuardReport(baseline, tuple(rows), all(r.ok for r in rows))


def check_prob_guard(spec: GuardSpec, budget: int = DEFAULT_BUDGET) -> GuardReport:
    """``cover`` with exact guessing chances over the spec's variables."""
    variables = tuple(spec.variables)
    return cover(spec.context, spec.target, spec.guards,
                 lambda known, want: chance(variables, known, want, budget))


# ---------------------------------------------------------------------------
# Table-defined partitioned functions, treated distributionally.


def output_distribution(f: PartitionedFunction, x: BitString) -> dict[BitString, Fraction]:
    """Distribution of f(x) over a uniform seed."""
    counts: dict[BitString, int] = {}
    n = 1 << f.seed_bits
    for sv in range(n):
        out = eval_partitioned(f, BitString(f.seed_bits, sv), x)
        counts[out] = counts.get(out, 0) + 1
    return {k: Fraction(c, n) for k, c in counts.items()}


def guess_fx_from_fz(f: PartitionedFunction, x: BitString, z: BitString) -> Fraction:
    """Best chance of f(x) for a guesser who saw x, z and f(z).

    The seed is the only randomness, so this counts seeds and takes the
    same argmax as the expression oracle.
    """
    counts: dict = {}
    for sv in range(1 << f.seed_bits):
        seed = BitString(f.seed_bits, sv)
        v = eval_partitioned(f, seed, z)
        w = eval_partitioned(f, seed, x)
        slot = counts.setdefault(v, {})
        slot[w] = slot.get(w, 0) + 1
    return Fraction(_best(counts), 1 << f.seed_bits)


def per_bit_independent(f: PartitionedFunction) -> bool:
    """Whether each block's answers to 0 and to 1 are independent."""
    if not f.is_bitwise():
        raise ValueError("per-bit independence is defined for bitwise functions")
    for b in f.blocks:
        n = 1 << b.seed_bits
        joint: dict = {}
        m0: dict = {}
        m1: dict = {}
        for sv in range(n):
            a0 = b.table[sv][0]
            a1 = b.table[sv][1]
            joint[(a0, a1)] = joint.get((a0, a1), 0) + 1
            m0[a0] = m0.get(a0, 0) + 1
            m1[a1] = m1.get(a1, 0) + 1
        for a0 in m0:
            for a1 in m1:
                if Fraction(joint.get((a0, a1), 0), n) != Fraction(m0[a0], n) * Fraction(m1[a1], n):
                    return False
    return True


def uniform_halves(f: PartitionedFunction) -> bool:
    """Whether every block answers each challenge bit uniformly."""
    if not f.is_bitwise():
        raise ValueError("uniform halves is defined for bitwise functions")
    for b in f.blocks:
        n = 1 << b.seed_bits
        for xin in (0, 1):
            ones = sum(b.table[sv][xin] for sv in range(n))
            if Fraction(ones, n) != Fraction(1, 2):
                return False
    return True


# ---------------------------------------------------------------------------
# Closed forms and identities.


def analytic(claim: str, **params) -> Fraction:
    """Exact closed-form value for a named claim.

    hamming(delta): 2**-delta        kernel(kappa, ell): 2**(kappa-ell)
    monty/prequery/early(ell): (3/4)**ell      naive(ell): 2**-ell
    """
    try:
        if claim == "hamming":
            return Fraction(1, 2 ** params.pop("delta"))
        if claim == "kernel":
            kappa = params.pop("kappa")
            ell = params.pop("ell")
            if not 0 <= kappa <= ell:
                raise ValueError(f"kernel size {kappa} not within 0..{ell}")
            return Fraction(2**kappa, 2**ell)
        if claim in ("monty", "prequery", "early"):
            return Fraction(3, 4) ** params.pop("ell")
        if claim == "naive":
            return Fraction(1, 2) ** params.pop("ell")
    except KeyError as missing:
        raise ValueError(f"claim {claim!r} needs parameter {missing}") from None
    raise ValueError(f"unknown claim {claim!r}")


def binomial_identity_check(ell: int) -> tuple[Fraction, Fraction, bool]:
    """sum_i C(ell,i) 2**-i against (3/2)**ell, both exact."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    lhs = sum(Fraction(comb(ell, i), 2**i) for i in range(ell + 1))
    rhs = Fraction(3, 2) ** ell
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# Random scenario corpus for the product-inequality sweep.


def _random_expr(rng: random.Random, decls: list[tuple[str, int]], want: int, depth: int) -> Expr:
    """Random expression of the requested width."""
    fitting = [n for n, b in decls if b == want]
    options = ["lit"]
    if fitting:
        options += ["var", "var", "var"]
    if depth > 0:
        options += ["negate", "concat", "boxplus"]
        if any(b > want for _, b in decls):
            options.append("proj")
    pick = rng.choice(options)
    if pick == "var":
        return exprs.Var(rng.choice(fitting))
    if pick == "lit":
        return exprs.Lit("".join(rng.choice("01") for _ in range(want)))
    if pick == "negate":
        return exprs.Negate(_random_expr(rng, decls, want, depth - 1))
    if pick == "concat" and want >= 2:
        cut = rng.randrange(1, want)
        return exprs.Concat(
            (
                _random_expr(rng, decls, cut, depth - 1),
                _random_expr(rng, decls, want - cut, depth - 1),
            )
        )
    if pick == "proj":
        wider = rng.choice([b for _, b in decls if b > want])
        lo = rng.randrange(1, wider - want + 2)
        return exprs.Proj(_random_expr(rng, decls, wider, depth - 1), lo, lo + want - 1)
    if pick == "boxplus":
        return exprs.BoxPlus(
            _random_expr(rng, decls, want, depth - 1),
            _random_expr(rng, decls, 2 * want, depth - 1),
        )
    return exprs.Lit("".join(rng.choice("01") for _ in range(want)))


def random_subbayes_case(
    rng: random.Random, max_total_bits: int = 12
) -> tuple[tuple[tuple[str, int], ...], tuple[Expr, ...], tuple[Expr, ...], tuple[Expr, ...]]:
    """One random (variables, xi, gamma, theta) case within the bit budget."""
    n_vars = rng.randrange(2, 5)
    decls = []
    left = max_total_bits
    for i in range(n_vars):
        hi = min(3, left - (n_vars - i - 1))
        bits = rng.randrange(1, hi + 1)
        left -= bits
        decls.append((f"v{i}", bits))

    def some(lo: int, hi: int) -> tuple[Expr, ...]:
        return tuple(
            _random_expr(rng, decls, rng.choice([b for _, b in decls]), rng.randrange(0, 3))
            for _ in range(rng.randrange(lo, hi + 1))
        )

    return tuple(decls), some(0, 2), some(1, 2), some(1, 2)


def builtin_guard_spec(name: str, ell: int = 1, secret_bits: int = 2) -> GuardSpec:
    """The two bundled guard instances for the timed exchange.

    attack-run: {{s}, {z boxplus h}} should guard x boxplus h for a
    middleman who saw the counters, both challenges, and one pre-query
    response.  early-run: {{kernel-masked x}} should guard it for the
    early-answering prover, whose useful view is just {s, a, b}.
    """
    s, a, b, x, z = (exprs.Var(n) for n in ("s", "a", "b", "x", "z"))
    h = exprs.Hash(exprs.Concat((s, a, b)), 2 * ell)
    if name == "attack-run":
        return GuardSpec(
            variables=(("s", secret_bits), ("a", ell), ("b", ell),
                       ("x", ell), ("z", ell)),
            context=(s, a, b, x, z, exprs.BoxPlus(z, h)),
            target=exprs.BoxPlus(x, h),
            guards=((s,), (exprs.BoxPlus(z, h),)),
        )
    if name == "early-run":
        return GuardSpec(
            variables=(("s", secret_bits), ("a", ell), ("b", ell), ("x", ell)),
            context=(s, a, b),
            target=exprs.BoxPlus(x, h),
            guards=((exprs.KernelMask(x, h),),),
        )
    raise ValueError(f"unknown builtin guard spec {name!r}")


def prob_json(p: Fraction) -> dict:
    """Rational with a decimal rendering, for reports."""
    return {"num": p.numerator, "den": p.denominator, "decimal": float(p)}
