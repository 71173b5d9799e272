"""Exact guessing chances by complete enumeration.

The central quantity: given expressions the guesser observes (knowns)
and expressions it must reproduce (targets), both over uniformly random
bitstring variables, the guessing chance is

    (1 / 2**B) * sum over observed values v of
                 max over target values w of #{env : knowns=v, targets=w}

where B counts the bits of the variables that actually occur.  This is
the best success probability of any guesser that makes no hash queries
and maps observations to a single answer; randomized guessers cannot
beat it because their success probability is a convex combination of
deterministic ones.  The query regime is part of the question: a
guesser that evaluates the hash at a point of its choosing, such as
H(guess.a.b), is modelled by adding that query as a known hash node.

Hash applications extend the environment: each distinct argument value
indexes an independent uniform table entry.  Nodes with equal argument
expressions and output widths always read one entry, and form one class.
Each class brings a block of fresh uniform variable bits.  Two classes
can collide only when their arguments and their outputs are of equal
widths, and then the later one, in fill order, reads the earlier one's
entry wherever their arguments are equal: its entry is a mux over the
earlier entries, its fresh bits where no argument matches.  That is the
law of the lazily filled random oracle, whose tabled key reuses its
entry.  Every operator, the mux included, is bit-local, so all the bits
split into independent components, and the chance is the product of the
components' chances: the paper's per-bit argument behind (3/4)**l.  Each
component's 2**k assignments are enumerated at once, as one truth table
per value bit, and the budget caps the widest component.  A component's
chance is counted on those tables as masks, splitting its rows into
classes of equal values with AND and popcount, while the classes fit
one word's rows; past that, as on a wide component read by many tables,
its rows are tallied one by one (``_best_rows``).  A muxed entry
bit reads every bit of both arguments, so colliding classes share one
component with their arguments.

The hash itself is public, so a guesser whose observations pin down an
argument value is credited with knowing that table entry as well.  The
entry augments the grouping key exactly when the observed values
determine the argument in every group of equal observations (computed as
a fixpoint, since one entry may pin down the argument of the next); an
argument fixed in some groups only leaves the entry unpinned.  With
truth tables the rule factorises: the argument is determined exactly
when each component's part of it is.  Without this rule a guesser
knowing the secret and both counters would not be able to "compute" the
session token, and every full-knowledge chance would come out wrong.

A check that asks several chances over one declaration reads them all
off one enumeration of their terms (``chances``): ``check_subbayes``,
``advantage``, ``check_prob_guard`` and the ``enumerate`` claims that
ask many.

Everything returns exact fractions; nothing here samples.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import comb
from operator import and_, or_
from typing import Iterable, Sequence

from . import exprs
from .exprs import Expr, free_vars, hash_nodes, width
from .exprs import evaluate  # noqa: F401 (bench/layers.py patches oracle.evaluate)

DEFAULT_BUDGET = 24


class BudgetExceededError(ValueError):
    """One enumeration would walk a component of more variable and
    hash-entry bits than allowed: the budget caps the widest component."""

    def __init__(self, required_bits: int, budget: int):
        self.required_bits = required_bits
        self.budget = budget
        super().__init__(
            f"scenario needs {required_bits} environment and hash-table bits, over the {budget}-bit budget"
        )


@dataclass(frozen=True)
class GuessScenario:
    """Variable declarations plus known and target expression lists."""

    variables: tuple[tuple[str, int], ...]
    knowns: tuple[Expr, ...]
    targets: tuple[Expr, ...]

    def __post_init__(self) -> None:
        seen = set()
        for name, bits in self.variables:
            if name in seen:
                raise ValueError(f"duplicate variable declaration {name!r}")
            if bits < 0:
                raise ValueError(f"variable {name!r} width must be >= 0, got {bits}")
            seen.add(name)
        decls = dict(self.variables)
        for e in self.knowns + self.targets:
            width(e, decls)


def _reads(e: Expr, cols: dict) -> list[int]:
    """For each value bit of ``e``, least significant first, the mask of the
    positions it reads; ``cols`` maps a variable's name, or a hash node's
    id, to the masks of its bits.  Supersets are sound: bit i of a
    selection reads x_i, h_i and h_{l+i}, only two of which decide it.  A
    KernelMask gives its value bits, then its star bits."""
    kind = type(e)
    if kind is exprs.Var:
        return cols[e.name]
    if kind is exprs.Lit:
        return [0] * len(e.text)
    if kind is exprs.Hash:
        return cols[id(e)]
    if kind is exprs.Concat:
        return [m for p in reversed(e.parts) for m in _reads(p, cols)]
    if kind is exprs.Negate:
        return _reads(e.arg, cols)
    if kind is exprs.Proj:
        arg = _reads(e.arg, cols)
        return arg[len(arg) - e.hi:len(arg) - e.lo + 1]
    x, h = _reads(e.x, cols), _reads(e.h, cols)
    n = len(x)
    out = [x[i] | h[i] | h[n + i] for i in range(n)]
    return out + out if kind is exprs.KernelMask else out


def _slices(e: Expr, cols: dict) -> list[int]:
    """For each value bit of ``e``, in ``_reads`` order, its truth table
    over the rows of its component: ``cols`` holds the tables of the
    variables' and hash nodes' bits.  ``~`` is two's complement, so a table
    is exact on its component's rows once masked to them."""
    kind = type(e)
    if kind is exprs.Var:
        return cols[e.name]
    if kind is exprs.Lit:
        value = int(e.text or "0", 2)
        return [-(value >> i & 1) for i in range(len(e.text))]
    if kind is exprs.Hash:
        return cols[id(e)]
    if kind is exprs.Concat:
        return [t for p in reversed(e.parts) for t in _slices(p, cols)]
    if kind is exprs.Negate:
        return [~t for t in _slices(e.arg, cols)]
    if kind is exprs.Proj:
        arg = _slices(e.arg, cols)
        return arg[len(arg) - e.hi:len(arg) - e.lo + 1]
    x, h = _slices(e.x, cols), _slices(e.h, cols)
    n = len(x)  # h[n:] is the first half h0, chosen where x is 0
    if kind is exprs.BoxPlus:
        return [h[n + i] & ~x[i] | h[i] & x[i] for i in range(n)]
    stars = [~(h[n + i] ^ h[i]) for i in range(n)]
    return [x[i] & ~stars[i] for i in range(n)] + stars


def _pattern(j: int, k: int) -> int:
    """The truth table of bit j of the row number over 2**k rows."""
    table, span = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
    while span < 1 << k:
        table |= table << span
        span <<= 1
    return table


CHUNK_BITS = 16  # rows are counted 2**16 at a time


def _each_row(tables: list, k: int):
    """Each of the 2**k rows of a component as the tuple of ``tables``'
    bits at it, built one chunk of rows at a time."""
    n = 1 << min(k, CHUNK_BITS)
    for lo in range(0, 1 << k, n):
        yield from zip(*[format(t >> lo & (1 << n) - 1, f"0{n}b") for t in tables])


WORD_LOG = 6  # 2**6 rows fit one machine word


def _best_rows(given: list, tables: list, k: int) -> int:
    """Over a component's 2**k rows, the sum over each value of ``given``
    of the count of its commonest value of ``tables``: 2**k exactly when
    ``tables`` are a function of ``given``.

    Two regimes count the same sum.  Masks (``_best_masks``) split the
    rows into classes of equal values with an AND per class and table,
    then popcount; rows (``_best_counted``) tally each row's tuple of bits
    in a ``Counter``.  g given and t target tables make at most
    2**min(k, g + t) classes.  While that is at most 2**WORD_LOG (on every
    component of at most WORD_LOG bits, whose tables are one word each, or
    on one read by few tables), masks cost at most 2 * 2**k word
    operations per table.  Past that a wide component's classes may reach
    2**k, of 2**k bits each, about 4**k/64 word operations, while rows
    stay linear in 2**k."""
    if k > WORD_LOG and len(given) + len(tables) > WORD_LOG:
        return _best_counted(given, tables, k)
    return _best_masks(given, tables, k)


def _classes(tables: list, rows: int) -> list[int]:
    """The nonempty classes of the rows in the mask ``rows`` on which every
    table of ``tables`` is constant."""
    classes = [rows]
    for t in tables:
        split = []
        for c in classes:
            if part := c & t:
                split.append(part)
            if part := c & ~t:
                split.append(part)
        classes = split
    return classes


def _best_masks(given: list, tables: list, k: int) -> int:
    """``_best_rows`` on masks: refine the rows by each given table, then
    each given class by each target table, and sum the largest popcount
    per given class."""
    best = 0
    for g in _classes(given, (1 << (1 << k)) - 1):
        best += max(map(int.bit_count, _classes(tables, g)))
    return best


def _best_counted(given: list, tables: list, k: int) -> int:
    """``_best_rows`` on rows: count each row's tuple of bits, and keep the
    commonest target tuple per given tuple."""
    best: dict = {}
    cut = len(given)
    for row, n in Counter(_each_row(given + tables, k)).items():
        if n > best.get(row[:cut], 0):
            best[row[:cut]] = n
    return sum(best.values())


class _TruthTables:
    """Truth tables of the expressions ``shown``, for ``chance`` to read.

    Each variable bit, and each bit of a hash class's fresh entry, is a
    position.  Classes are taken in fill order, an argument's nodes first.
    A class's entry is its fresh bits unless an earlier class has the same
    shape (argument width, output width); then it is the mux
    ``eq(arg_1, arg_j) ? e_1 : eq(arg_2, arg_j) ? e_2 : ... : fresh_j`` over
    those earlier classes, the first match winning, where ``eq`` is the
    AND of the XNORs of the argument bits.  The positions split into
    independent components by the masks that ``_reads`` gives every bit of
    ``shown`` and of the classes' arguments and entries, and each
    component's 2**k rows are its assignments.  Every expression is
    evaluated once, by ``_slices``, into a truth table per value bit.
    Expressions are looked up by id, as ``shown`` holds them.
    """

    def __init__(self, variables, shown: Sequence[Expr], classes: dict, own: dict, budget: int):
        self.own = own
        masks: dict = {}
        at = 0
        for name, bits in variables:
            masks[name] = [1 << at + k for k in range(bits)]
            at += bits
        fresh, arg_reads, entries, earlier = {}, {}, {}, {}
        shapes: dict = {}  # (argument width, output width) -> its classes so far
        for key, nodes in classes.items():
            arg = arg_reads[key] = _reads(nodes[0].arg, masks)
            entry = fresh[key] = [1 << at + k for k in range(nodes[0].out_bits)]
            at += len(entry)
            shape = len(arg), len(entry)
            earlier[key] = same = shapes.get(shape, [])
            shapes[shape] = same + [key]
            if same:  # bit k reads every argument and bit k of each earlier entry
                compared = reduce(or_, arg + [m for i in same for m in arg_reads[i]], 0)
                entry = [reduce(or_, (entries[i][k] for i in same), m | compared)
                         for k, m in enumerate(entry)]
            entries[key] = entry
            masks.update((id(n), entry) for n in nodes)
        reads = [_reads(e, masks) for e in shown]
        comps: list[int] = []
        covered = 0  # the union of comps
        for m in itertools.chain(*reads, *arg_reads.values(), *entries.values()):
            if not m & covered:
                if m:  # else a constant bit
                    comps.append(m)
                    covered |= m
                continue
            hits = [c for c in comps if c & m]
            if len(hits) == 1 and m | hits[0] == hits[0]:
                continue
            for c in hits:
                comps.remove(c)
                m |= c
            comps.append(m)
            covered |= m
        self.widths = [c.bit_count() for c in comps]
        if max(self.widths, default=0) > budget:
            raise BudgetExceededError(max(self.widths), budget)
        comp_of, tables = {}, {}
        for i, c in enumerate(comps):
            for j in range(self.widths[i]):
                bit = c & -c
                comp_of[bit], tables[bit] = i, _pattern(j, self.widths[i])
                c ^= bit
        cols = {name: [tables.get(m, 0) for m in masks[name]] for name, _ in variables}
        args = {}
        for key, nodes in classes.items():
            arg = args[key] = _slices(nodes[0].arg, cols)
            entry = [tables[m] for m in fresh[key]]
            for i in reversed(earlier[key]):
                eq = reduce(and_, (~(p ^ q) for p, q in zip(args[i], arg)), -1)
                entry = [eq & e | ~eq & t for e, t in zip(cols[id(classes[i][0])], entry)]
            cols.update((id(n), entry) for n in nodes)
        fulls = [(1 << (1 << k)) - 1 for k in self.widths]

        def columns(ms, ts):
            return [(c := comp_of[m & -m], t & fulls[c]) for m, t in zip(ms, ts) if m]

        self.columns = {id(e): columns(ms, _slices(e, cols)) for e, ms in zip(shown, reads)}
        self.args = {}
        for key in classes:
            self.args[key] = by_comp = {}
            for c, t in columns(arg_reads[key], args[key]):
                by_comp.setdefault(c, []).append(t)
        self.entries = {key: columns(entries[key], cols[id(nodes[0])]) for key, nodes in classes.items()}

    def chance(self, knowns: Sequence[Expr], targets: Sequence[Expr]) -> Fraction:
        """The chance of ``targets`` given ``knowns``: a product over the
        components that targets read, each a sum over known rows of the
        commonest target row.  A class's entry joins the knowns once its
        argument follows from the knowns in every component, to a
        fixpoint, so that chains of hashes resolve in order; only the
        query's own classes are pinned (``chances`` says why)."""
        given: dict = {}
        want: dict = {}
        for es, into in ((knowns, given), (targets, want)):
            for e in es:
                for c, t in self.columns[id(e)]:
                    into.setdefault(c, []).append(t)
        if self.entries:  # a hash-free union has no class to pin
            remaining = list(dict.fromkeys(key for e in (*knowns, *targets) for key in self.own[id(e)]))
            while remaining and (pinned := [key for key in remaining if all(
                    _best_rows(given.get(c, []), ts, self.widths[c]) == 1 << self.widths[c]
                    for c, ts in self.args[key].items())]):
                for key in pinned:
                    for c, t in self.entries[key]:
                        given.setdefault(c, []).append(t)
                    remaining.remove(key)
        best = 1
        for c, ts in want.items():
            best *= _best_rows(given.get(c, []), ts, self.widths[c])
        return Fraction(best, 1 << sum(self.widths[c] for c in want))


def _enumerate(variables, shown: Sequence[Expr], budget: int):
    """``chance_of(knowns, targets)`` for queries over ``shown``, read off
    one ``_TruthTables`` enumeration of it."""
    classes: dict = {}  # repr -> the nodes of one class, in fill order
    own: dict = {}  # id(e) -> the classes of e's nodes
    for e in shown:
        own[id(e)] = keys = []
        for n in hash_nodes(e):
            keys.append(repr(n))
            classes.setdefault(keys[-1], []).append(n)
    return _TruthTables(variables, shown, classes, own, budget).chance


def guess_chance(scenario: GuessScenario, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact best guessing chance of the targets given the knowns.

    Hash nodes are variables here: each class brings a block of
    ``out_bits`` fresh variable bits, its entry is that block muxed with
    the entries of earlier classes that may collide with it (see the
    module docstring), and a node's value is its class's entry.  The
    variable and entry bits split into independent components, and the
    chance is the product of the components' chances (Smith, FoSSaCS
    2009, for independent channels).  This is exact: each value bit, and
    each bit of a class's argument, is a function of one component or
    constant, so the components' parts are independent and the sum over
    observations of the best answer's weight splits into a product.  A
    class is pinned, its entry joining the knowns, when its argument is a
    function of the knowns in every component, that is, when the knowns
    determine it in every group of equal observations.  The budget caps
    the widest component.

    Classes are muxed in fill order, which lists a class after those in
    its argument (``hash_nodes`` is post-order and the dedup keeps first
    occurrences), so a muxed entry reads only entries already built.
    """
    knowns, targets = scenario.knowns, scenario.targets
    return _enumerate(scenario.variables, knowns + targets, budget)(knowns, targets)


def chance(
    variables,
    knowns: Iterable[Expr],
    targets: Iterable[Expr],
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Convenience wrapper building the scenario in place.

    ``variables`` may be (name, bits) pairs or a name -> bits mapping.
    """
    if isinstance(variables, Mapping):
        variables = tuple(variables.items())
    return guess_chance(GuessScenario(tuple(variables), tuple(knowns), tuple(targets)), budget)


def chances(variables, shown: Iterable[Expr], budget: int = DEFAULT_BUDGET):
    """``chance_of(knowns, targets)`` for queries whose knowns and targets
    are taken from ``shown`` (looked up by id), all read off one
    enumeration of ``shown``; ``variables`` as for ``chance``.

    That equals each query's own enumeration: the query's knowns, targets
    and own nodes' arguments and entries have the same joint law in both.
    Bits the query does not read multiply every group's weight by the
    same factor.  A class the query does not read may come earlier in the
    mux of a query class, which then reads that class's entry where their
    arguments are equal: uniform and apart from the query's other bits, as
    its own fresh bits would be.  Only the query's own classes are pinned,
    so the guesser stays in the zero-query regime; pinning another query's
    node would hand it a free hash query.

    A union over the budget (its widest component) falls back to asking
    ``chance`` per query, and a query over the budget raises as it would
    alone.
    """
    if isinstance(variables, Mapping):
        variables = tuple(variables.items())
    variables, shown = tuple(variables), tuple(shown)
    GuessScenario(variables, (), shown)  # the declaration and width checks, once
    try:
        return _enumerate(variables, shown, budget)
    except BudgetExceededError:
        return partial(chance, variables, budget=budget)  # each query may still fit alone


def advantage(scenario: GuessScenario, budget: int = DEFAULT_BUDGET) -> Fraction:
    """How much the knowns improve on guessing the targets cold, both
    chances read off one pass."""
    knowns, targets = scenario.knowns, scenario.targets
    chance_of = chances(scenario.variables, knowns + targets, budget)
    return chance_of(knowns, targets) - chance_of((), targets)


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

    The three chances are read off one ``chances`` pass over xi, gamma and
    theta, which are the last query's own terms: the pass is over the
    budget exactly when that query is, and then the three are asked one
    by one, as they would be alone.

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
    xi, gamma, theta = tuple(xi), tuple(gamma), tuple(theta)
    context = xi + gamma
    chance_of = chances(variables, context + theta, budget)
    a = chance_of(xi, gamma)
    b = chance_of(context, theta)
    rhs = chance_of(xi, gamma + theta)
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

    def __post_init__(self) -> None:
        # the declaration and width checks every query would make
        GuessScenario(tuple(self.variables), tuple(self.context),
                      (self.target, *(e for g in self.guards for e in g)))

    @classmethod
    def from_json(cls, doc: str | dict) -> "GuardSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        exprs.json_fields(doc, ("vars", "context", "target", "guards"))
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

    Chances are exact Fractions, or 0/1 ints in the algebraic regime of
    ``symbolic.check_alg_guard``, where a row derives the target iff
    ``lhs`` is 1.
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

    A chance must depend on the set of known terms only, not on their
    order or repeats; each distinct (set, want) is asked once per call.
    ``check_prob_guard`` answers every ask from one ``chances`` pass over
    all the spec's terms.
    """
    memo: dict = {}

    def ask(known, want):
        key = (frozenset(known), tuple(want))
        if key not in memo:
            memo[key] = chance_of(known, want)
        return memo[key]

    baseline = ask((), (target,))
    rows = []
    for picks in context_subsets(len(context)):
        subset = tuple(context[i] for i in picks)
        lhs = ask(subset, (target,))
        adv = lhs - baseline
        if adv <= 0:
            rows.append(GuardRow(picks, lhs, adv, None, None, True, True))
            continue
        best = 0
        witness = None
        for gi, guard in enumerate(guards):
            reach = ask(subset, guard)
            then = ask(subset + tuple(guard), (target,))
            if reach * then > best:
                best = reach * then
                witness = gi
        rows.append(GuardRow(picks, lhs, adv, best, witness, lhs <= best, False))
    return GuardReport(baseline, tuple(rows), all(r.ok for r in rows))


def check_prob_guard(spec: GuardSpec, budget: int = DEFAULT_BUDGET) -> GuardReport:
    """``cover`` with exact guessing chances over the spec's variables.

    Every chance ``cover`` asks is read off one ``chances`` pass over the
    union of context, target and guard terms.
    """
    shown = (*spec.context, spec.target, *(e for g in spec.guards for e in g))
    return cover(spec.context, spec.target, spec.guards, chances(spec.variables, shown, budget))


# ---------------------------------------------------------------------------
# Closed forms and identities.


def analytic(claim: str, **params) -> Fraction:
    """Exact closed-form value for a named claim.

    hamming(delta): 2**-delta        kernel(kappa, ell): 2**(kappa-ell)
    monty/prequery/early(ell): (3/4)**ell      naive(ell): 2**-ell
    secret-guess(ell, secret_bits): hit + (1 - hit) * 2**-ell, hit = 2**-secret_bits
    Parameters a claim does not use are ignored.
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
        if claim == "secret-guess":
            hit = Fraction(1, 2 ** params.pop("secret_bits"))
            return hit + (1 - hit) * Fraction(1, 2 ** params.pop("ell"))
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
