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
components' chances: the paper's per-bit argument behind (3/4)**l.  A
muxed entry bit reads every bit of both arguments, so colliding classes
share one component with their arguments.  One walk per query, scenario,
spec or check checks its terms and gives their bits' components,
constants and one table of hash classes; a selection bit whose challenge
bit is constant reads only the token half it selects.  A plain query,
whose bits are constants or copies of one position and which reads no
muxed entry (kernel, distance-law and prop34's fixed-x queries, most
product-rule cases), is read off that walk (``_plain_chance``), pass or
no pass: 2**-popcount(targets' mask & ~knowns' mask), an entry joining
the knowns once its argument's mask lies inside theirs.  Any other is
counted on a pass, one truth table per value bit of every node over a
component's 2**k assignments.  The budget caps the widest component; a
plain query reading a position needs 1 bit.  A two-row component is one
bit of a mask; a wider one is counted on its tables as masks, splitting
its rows into classes with AND and popcount, while the classes fit one
word's rows, and row by row past that (``_best_rows``).  Across calls
the oracle keeps only the row-bit tables of each width up to 12.

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

A check that asks several chances over one declaration reads them off
the walk when every term is plain, else off one enumeration of their
terms (``_pass``, which ``chances``, ``check_subbayes`` and
``check_prob_guard`` ask).

Everything returns exact fractions; nothing here samples.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter, namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import partial, reduce
from math import comb
from operator import and_, invert, or_, xor
from typing import Iterable, NamedTuple, Sequence

from . import exprs
from ._slotted import Slotted, setfields
from .exprs import Expr
from .exprs import evaluate  # noqa: F401 (bench/layers.py patches oracle.evaluate)

DEFAULT_BUDGET = 24
_NEGATED = bytes.maketrans(b"01", b"10")  # str.translate table negating a shape's constants; immutable
_POWERS = tuple(Fraction(1, 1 << n) for n in range(64))  # 2**-n, built at import; never grows


class BudgetExceededError(ValueError):
    """One enumeration would walk a component of more variable and
    hash-entry bits than allowed: the budget caps the widest component."""

    def __init__(self, required_bits: int, budget: int):
        self.required_bits = required_bits
        self.budget = budget
        super().__init__(
            f"scenario needs {required_bits} environment and hash-table bits, over the {budget}-bit budget"
        )


class GuessScenario(Slotted):
    """Variable declarations plus known and target expression lists,
    checked by the one walk (``_walk``) that every pass over them reads."""

    __match_args__ = ("variables", "knowns", "targets")
    __slots__ = __match_args__ + ("_walk",)  # a function of the fields, as the scenario is immutable

    def __init__(self, variables: tuple[tuple[str, int], ...], knowns: tuple[Expr, ...],
                 targets: tuple[Expr, ...]):
        setfields(self, variables, knowns, targets, _walk(variables, knowns + targets))


def _analyse(e: Expr, memo: dict, fill) -> tuple:
    """For each value bit of ``e``, least significant first, the mask of the
    positions it reads; the class keys of e's hash nodes; the bits' shape:
    "0" or "1" for a constant, "." for a copy or negation of the position
    it reads, "?" for any other bit; the mask of e's variables, one bit
    per declaration; and the union of its bits' masks, which a plain
    query's chance reads.  The walk is post-order:
    ``fill(node, argument reads)`` classes a hash node when first met, in
    fill order, and gives its entry masks; equal nodes are one class, keyed
    by the first met, with "." bits unless the argument has a "?" (muxing is
    the pass's to check).  ``memo`` holds the variables by name and each
    node once analysed by id.  A selection's bit i reads x_i, h_i and
    h_{l+i}, but a constant x_i reads only the half it selects, and constant
    halves read x_i where they differ, nothing where equal; past that, reads
    may be supersets.  A KernelMask gives its value bits, then its stars.

    The walk checks the term, raising at the first fault met: an
    undeclared variable, a KernelMask below the top level (masks are
    observations, not bit material), slice bounds not ints and then out of
    range, a hash width not an int, a token not twice its challenge."""
    kind = type(e)
    if kind is exprs.Var:
        try:
            return memo[e.name]
        except KeyError:
            raise ValueError(f"undeclared variable {e.name!r}") from None
    if (got := memo.get(id(e))) is not None:
        return got
    if kind is exprs.Lit:
        got = [0] * len(e.text), (), e.text[::-1], 0, 0
    elif kind is exprs.Concat:
        if exprs.KernelMask in map(type, e.parts):
            raise ValueError("masked string cannot be concatenated")
        reads, keys, shape, names, union = [], (), "", 0, 0
        for part in e.parts:  # the first part holds the high bits
            r, k, s, n, u = _analyse(part, memo, fill)
            reads, keys, shape, names, union = r + reads, keys + k, s + shape, names | n, union | u
        got = reads, keys, shape, names, union
    elif kind is exprs.Negate:
        if type(e.arg) is exprs.KernelMask:
            raise ValueError("masked string cannot be negated")
        reads, keys, shape, names, union = _analyse(e.arg, memo, fill)
        got = reads, keys, shape.translate(_NEGATED), names, union
    elif kind is exprs.Proj:
        if type(e.arg) is exprs.KernelMask:
            raise ValueError("masked string cannot be sliced")
        if type(e.lo) is not int or type(e.hi) is not int:  # a bool is not an int here
            raise ValueError(f"slice bounds must be ints, got {e.lo!r}..{e.hi!r}")
        reads, keys, shape, names, _ = _analyse(e.arg, memo, fill)
        if not 1 <= e.lo <= e.hi + 1 or e.hi > len(reads):
            raise ValueError(f"slice {e.lo}..{e.hi} out of range 1..{len(reads)}")
        lo, hi = len(reads) - e.hi, len(reads) - e.lo + 1
        got = reads[lo:hi], keys, shape[lo:hi], names, reduce(or_, reads[lo:hi], 0)
    elif kind is exprs.Hash:
        if type(e.arg) is exprs.KernelMask:
            raise ValueError("masked string cannot be hashed")
        if type(e.out_bits) is not int:
            raise ValueError(f"hash output width must be an int, got {e.out_bits!r}")
        arg, keys, shape, names, _ = _analyse(e.arg, memo, fill)
        entry = fill(e, arg)
        got = entry, keys + (e,), ("?" if "?" in shape else ".") * e.out_bits, names, reduce(or_, entry, 0)
    elif kind is exprs.BoxPlus or kind is exprs.KernelMask:
        if type(e.x) is exprs.KernelMask or type(e.h) is exprs.KernelMask:
            raise ValueError("masked string cannot feed a selection operator")
        (x, keys, cx, names, ux), (h, more, ch, also, uh) = _analyse(e.x, memo, fill), _analyse(e.h, memo, fill)
        n, keys, names, pick = len(x), keys + more, names | also, kind is exprs.BoxPlus
        if len(h) != 2 * n:
            raise ValueError(f"token width {len(h)} is not twice the challenge width {n}")
        if not (pick and cx.strip(".?") or ch[:n].strip(".?") and ch[n:].strip(".?")):  # nothing to fold
            out = list(map(or_, map(or_, x, h), h[n:]))
            got = (out, keys, "?" * n, names, ux | uh) if pick else (out + out, keys, "?" * 2 * n, names, ux | uh)
        else:  # h_i is picked where x_i is 1, and h_{l+i} where it is 0
            out, shape = [], ""
            for i, c, one, zero in zip(range(n), cx, ch, ch[n:]):
                if pick and c in "01":
                    bit, char = (h[i], one) if c == "1" else (h[n + i], zero)
                elif one in "01" and zero in "01":  # x_i or its negation, or constant (a mask blanks it)
                    bit, char = (x[i], c) if one != zero else (0, one if pick else "0")
                else:
                    bit, char = x[i] | h[i] | h[n + i], "?"
                out.append(bit)
                shape += char
            if not pick:  # a star is set where the halves are equal; a constant star reads nothing
                stars = "".join(["01"[a == b] if a in "01" and b in "01" else "?" for a, b in zip(ch, ch[n:])])
                out, shape = out + [m if s == "?" else 0 for s, m in zip(stars, out)], shape + stars
            got = out, keys, shape, names, reduce(or_, out, 0)
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[id(e)] = got
    return got


_HashClass = namedtuple("_HashClass", "nodes fresh args entry earlier unions")  # earlier: keys that may collide


def _walk(variables, shown: tuple) -> tuple:
    """Check ``variables`` and walk ``shown`` once into (memo, each term's
    ``_analyse``, whether every term is plain, classes).  ``classes`` maps
    the first node met of each hash class, in fill order, to its
    ``_HashClass``: nodes, fresh positions, argument reads, entry, earlier
    classes that may collide, and (argument, entry) unions."""
    if len(dict(variables)) < len(variables):
        name = next(n for i, (n, _) in enumerate(variables) if n in dict(variables[:i]))  # the first repeat
        raise ValueError(f"duplicate variable declaration {name!r}")
    memo, at = {}, 0  # memo: a variable's name, or a node's id -> its analysis
    for i, (name, bits) in enumerate(variables):
        if type(bits) is not int or bits < 0:  # a bool is not an int here
            need = ">= 0" if type(bits) is int else "an int"
            raise ValueError(f"variable {name!r} width must be {need}, got {bits!r}")
        memo[name] = [1 << k for k in range(at, at + bits)], (), "." * bits, 1 << i, ((1 << bits) - 1) << at
        at += bits
    classes, plain = {}, True  # plain until a class is muxed or a bit is neither constant nor copy

    def fill(node, arg):  # equal nodes are one class, keyed by the first met
        nonlocal at, plain
        if (got := classes.get(node)) is None:
            shape = len(arg), node.out_bits  # the classes that may collide with it
            same = [key for key, c in classes.items() if (len(c.args), len(c.fresh)) == shape]
            entry = fresh = [1 << at + k for k in range(node.out_bits)]
            at += len(fresh)
            if same:  # muxed: bit k reads every argument and bit k of each earlier entry
                plain, compared = False, reduce(or_, arg + [m for key in same for m in classes[key].args], 0)
                entry = [reduce(or_, (classes[key].entry[k] for key in same), m | compared)
                         for k, m in enumerate(fresh)]
            got = classes[node] = _HashClass([], fresh, arg, entry, same,
                                             (reduce(or_, arg, 0), reduce(or_, entry, 0)))
        got.nodes.append(node)
        return got.entry

    reads = [_analyse(e, memo, fill) for e in shown]
    for r in reads:  # a plain loop: it runs on every kernel query
        plain = plain and "?" not in r[2]
    return memo, reads, plain, classes


def _plain_chance(walk: tuple, knowns: Sequence[Expr], targets: Sequence[Expr], budget: int) -> Fraction | None:
    """The chance of ``targets`` given ``knowns``, terms among those that
    made ``walk``, if the query is plain (the module docstring's rule,
    pinning to a fixpoint only the query's own classes), else None.  The
    budget must be an int of at least 0, and 1 if the query reads a position."""
    if type(budget) is not int or budget < 0:  # a bool is not an int here
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")
    (memo, _, plain, classes), known, target, keys = walk, 0, 0, ()  # keys: the query's classes
    for e in knowns:  # loops, not comprehensions: this is the cost of a kernel query
        t = memo[e.name] if type(e) is exprs.Var else memo[id(e)]
        known, keys = known | t[4], keys + t[1]
    for e in targets:
        t = memo[e.name] if type(e) is exprs.Var else memo[id(e)]
        target, keys = target | t[4], keys + t[1]
    if not plain and (any(type(e) is not exprs.Var and "?" in memo[id(e)][2] for e in (*knowns, *targets))
                      or any(classes[key].earlier for key in keys)):  # shapes matter on such a walk only
        return None
    if budget < 1 and (known | target or any(any(classes[key].unions) for key in keys)):
        raise BudgetExceededError(1, budget)
    while keys and (pinned := [key for key in keys if not classes[key].unions[0] & ~known]):
        known = reduce(or_, [classes[key].unions[1] for key in pinned], known)
        keys = [key for key in keys if key not in pinned]
    n = (target & ~known).bit_count()
    return _POWERS[n] if n < 64 else Fraction(1, 1 << n)


def _slices(e: Expr, cols: dict) -> list[int]:
    """For each value bit of ``e``, in ``_analyse`` order, its truth table
    over the rows of its component: ``cols`` holds the tables of the
    variables' and hash nodes' bits, and keeps each other node's tables by
    id once sliced, so that a term shown again, alone or inside another,
    is sliced once per pass.  ``~`` is two's complement, so a table is
    exact on its component's rows once masked to them."""
    kind = type(e)
    if kind is exprs.Var:
        return cols[e.name]
    if (out := cols.get(id(e))) is not None:  # a hash node, or a node sliced before
        return out
    if kind is exprs.Lit:  # a 1 bit is all ones on every row
        out = [-(c == "1") for c in reversed(e.text)]
    elif kind is exprs.Concat:
        out = []
        for part in e.parts:  # the first part holds the high bits
            out = _slices(part, cols) + out
    elif kind is exprs.Negate:
        out = list(map(invert, _slices(e.arg, cols)))
    elif kind is exprs.Proj:
        arg = _slices(e.arg, cols)
        out = arg[len(arg) - e.hi:len(arg) - e.lo + 1]
    else:
        x, h = _slices(e.x, cols), _slices(e.h, cols)
        h0 = h[len(x):]  # the first half, chosen where x is 0; h1 = h[:n] is chosen where it is 1
        differ = list(map(xor, h0, h))  # the rows on which the halves differ
        if kind is exprs.BoxPlus:  # h0 & ~x | h1 & x
            out = list(map(xor, h0, map(and_, differ, x)))
        else:  # a star is set where the halves are equal
            out = list(map(and_, x, differ)) + list(map(invert, differ))
    cols[id(e)] = out
    return out


def _pattern(j: int, k: int) -> int:
    """The truth table of bit j of the row number over 2**k rows."""
    table, span = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
    while span < 1 << k:
        table |= table << span
        span <<= 1
    return table


ROW_TABLES_MAX = 12  # widths whose row-bit tables are kept, 2**12 bits per table at most
_row_tables: dict[int, tuple[int, ...]] = {}  # width -> its row-bit tables


def _patterns(k: int) -> tuple[int, ...]:
    """``_pattern(j, k)`` for each j < k, built once per width up to
    ROW_TABLES_MAX; the oracle keeps no other state across calls."""
    if (got := _row_tables.get(k)) is None:
        got = tuple(_pattern(j, k) for j in range(k))
        if k <= ROW_TABLES_MAX:
            _row_tables[k] = got
    return got


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
    stay linear in 2**k.  Two-row components never get here: a pass
    counts them as position masks (``_TruthTables``)."""
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
    """Truth tables of the terms ``shown`` over ``variables`` (looked up
    by id): called as ``chance_of(knowns, targets)`` for a query over them,
    or read by ``product_rule``.  The pass tabulates from ``walk``, the
    terms' ``_walk`` that its caller made, and walks no term again.

    A class's entry is its fresh bits unless an earlier class, in fill
    order, has the same shape (argument width, output width); then it is
    the mux ``eq(arg_1, arg_j) ? e_1 : eq(arg_2, arg_j) ? e_2 : ... :
    fresh_j`` over those earlier classes, the first match winning, where
    ``eq`` is the AND of the XNORs of the argument bits.  The walk's masks
    split the positions into independent components, each of whose 2**k
    rows is an assignment.  A plain query is read off the walk
    (``_plain_chance``), and a walk of plain terms builds no pass
    (``_pass``).  Every node is sliced once (``_slices``) into a truth
    table per value bit, grouped by component once per term.  A two-row
    component (one position) is a bit of a mask instead: the positions on
    which one of a term's tables varies (``t & 3`` is 1 or 2; any int may
    be a table).  The budget is an int of at least 0, checked by the caller.
    """

    def __init__(self, variables: tuple, shown: tuple, walk: tuple, budget: int):
        memo, reads, _, classes = self.walk = walk
        self.budget = budget
        comps: list[int] = []
        covered = 0  # the union of comps
        masks = itertools.chain(*(r[0] for r in reads), *(c.args for c in classes.values()),
                                *(c.entry for c in classes.values()))
        for m in filter(None, masks):  # a constant bit reads no position
            if not m & covered:
                comps.append(m)
                covered |= m
                continue
            hits = [c for c in comps if c & m] if m & m - 1 else ()  # a covered position is in one
            if len(hits) < 2 and not m & ~covered:
                continue
            for c in hits:
                comps.remove(c)
                m |= c
            comps.append(m)
            covered |= m
        self.widths = list(map(int.bit_count, comps))
        if (widest := max(self.widths, default=0)) > budget:
            raise BudgetExceededError(widest, budget)
        comp_of, tables, two = {}, {}, covered  # two: the positions of the two-row components
        for i, k in enumerate(self.widths):
            if k > 1:  # a one-position table is 2, the row number; the default below
                c = comps[i]
                two ^= c
                for table in _patterns(k):
                    bit = c & -c
                    comp_of[bit], tables[bit] = i, table
                    c ^= bit

        def group(ms, ts):  # the tables of each wider component, and the two-row mask
            by_comp, varies = {}, 0
            for m, t in zip(ms, ts):
                if m & two:
                    if t & 3 in (1, 2):
                        varies |= m
                elif m:
                    by_comp.setdefault(comp_of[m & -m], []).append(t)
            return by_comp, varies

        cols = {name: [tables.get(m, 2) for m in memo[name][0]] for name, _ in variables}
        self.args, self.entries, args = {}, {}, {}
        for key, c in classes.items():
            arg = args[key] = _slices(key.arg, cols)
            entry = [tables.get(m, 2) for m in c.fresh]
            for i in reversed(c.earlier):
                eq = reduce(and_, (~(p ^ q) for p, q in zip(args[i], arg)), -1)
                entry = [eq & e | ~eq & t for e, t in zip(cols[id(i)], entry)]
            cols.update((id(n), entry) for n in c.nodes)
            self.args[key], self.entries[key] = group(c.args, arg), group(c.entry, entry)
        # a constant term reads no position, and is not sliced on its own
        self.columns = {id(e): group(r[0], _slices(e, cols)) if any(r[0]) else ({}, 0)
                        for e, r in zip(shown, reads)}

    def __call__(self, knowns: Sequence[Expr], targets: Sequence[Expr]) -> Fraction:
        """The chance of ``targets`` given ``knowns``: a plain query's off
        the walk; any other's a product over the components that targets
        read, each a sum over known rows of the commonest target row (a
        two-row component halves it when some target varies on it and no
        known does), its own classes pinned as the module docstring says."""
        if (got := _plain_chance(self.walk, knowns, targets, self.budget)) is not None:
            return got
        memo, _, _, _ = self.walk  # a variable reads no class
        remaining = list(dict.fromkeys(k for e in (*knowns, *targets) if type(e) is not exprs.Var for k in memo[id(e)][1]))
        given, known = _merged([self.columns[id(e)] for e in knowns])
        want, target = _merged([self.columns[id(e)] for e in targets])
        widths = self.widths
        while remaining and (pinned := [  # on two rows, pinned iff no bit varies where no known does
                key for key in remaining if not self.args[key][1] & ~known
                and all(_best_rows(given.get(c, []), ts, widths[c]) == 1 << widths[c]
                        for c, ts in self.args[key][0].items())]):
            given, known = _merged([(given, known), *(self.entries[key] for key in pinned)])
            remaining = [key for key in remaining if key not in pinned]
        best, bits = 1, (target & ~known).bit_count()
        for c, ts in want.items():
            bits += widths[c]
            best *= _best_rows(given.get(c, []), ts, widths[c])
        return Fraction(best, 1 << bits)

    def product_rule(self, xi, gamma, theta) -> tuple[Fraction, Fraction, Fraction] | None:
        """chance(xi -> gamma), chance(xi,gamma -> theta) and chance(xi ->
        gamma,theta) off one split of the rows of each component that gamma
        or theta reads, by xi's tables, then gamma's, then theta's: sums of
        the largest (xi,gamma) class per xi class, and of the largest theta
        class per (xi,gamma) class and per xi class.  An unread component
        sums to 2**k, a factor of 1.  None on a pass with a class to pin or
        a component past the mask regime (``_best_rows``); asked of passes that tabulate."""
        if self.args:
            return None
        (xs, mx), (gs, mg), (ts, mt) = (_merged([self.columns[id(e)] for e in es]) for es in (xi, gamma, theta))
        bits, s1, s2, s3 = 0, 1, 1, 1
        for c in gs.keys() | ts.keys():
            k, given, middle, last = self.widths[c], xs.get(c, []), gs.get(c, []), ts.get(c, [])
            if k > WORD_LOG and len(given) + len(middle) + len(last) > WORD_LOG:
                return None
            bits += k
            t1 = t2 = t3 = 0
            for x in _classes(given, (1 << (1 << k)) - 1):
                top_g = top_t = 0
                for g in _classes(middle, x):
                    top = max(map(int.bit_count, _classes(last, g)))
                    t2 += top
                    top_g, top_t = max(top_g, g.bit_count()), max(top_t, top)
                t1 += top_g
                t3 += top_t
            s1, s2, s3 = s1 * t1, s2 * t2, s3 * t3
        return (Fraction(s1, 1 << bits + (mg & ~mx).bit_count()),
                Fraction(s2, 1 << bits + (mt & ~(mx | mg)).bit_count()),
                Fraction(s3, 1 << bits + ((mg | mt) & ~mx).bit_count()))


def _merged(sides: list) -> tuple[dict, int]:
    """Several terms' grouped tables and two-row masks as one; no input is extended."""
    if len(sides) == 1:
        return sides[0]
    by_comp, varies = {}, 0
    for more, mask in sides:
        varies |= mask
        for c, ts in more.items():
            by_comp[c] = by_comp[c] + ts if c in by_comp else ts
    return by_comp, varies


def guess_chance(scenario: GuessScenario, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact best guessing chance of the targets given the knowns: read off
    the walk that the scenario made when it was built if the query is
    plain (``_plain_chance``), else counted on one pass over that walk.

    Hash nodes read their classes' entries (see the module docstring).
    The variable and entry bits split into independent components, and the
    chance is the product of the components' chances (Smith, FoSSaCS
    2009, for independent channels).  This is exact: each value bit, and
    each bit of a class's argument, is a function of one component or
    constant, so the components' parts are independent and the sum over
    observations of the best answer's weight splits into a product.
    Classes are muxed in fill order, which lists a class after those in
    its argument, so a muxed entry reads only entries already built.
    """
    knowns, targets, walk = scenario.knowns, scenario.targets, scenario._walk
    got = _plain_chance(walk, knowns, targets, budget)
    return _TruthTables(scenario.variables, knowns + targets, walk, budget)(knowns, targets) if got is None else got


def chance(variables, knowns: Iterable[Expr], targets: Iterable[Expr], budget: int = DEFAULT_BUDGET) -> Fraction:
    """``guess_chance`` of the scenario, which a plain query reads off its
    terms' walk without building one; ``variables`` may be (name, bits)
    pairs or a name -> bits mapping."""
    variables, knowns, targets = _declared(variables), tuple(knowns), tuple(targets)
    walk = _walk(variables, knowns + targets)
    if (got := _plain_chance(walk, knowns, targets, budget)) is not None:
        return got
    setfields(scenario := object.__new__(GuessScenario), variables, knowns, targets, walk)  # walked once
    return guess_chance(scenario, budget)


def _declared(variables) -> tuple:
    """(name, bits) pairs, from pairs or a name -> bits mapping; a tuple as given."""
    if type(variables) is tuple:
        return variables
    return tuple(variables.items() if isinstance(variables, (dict, Mapping)) else variables)


def chances(variables, shown: Iterable[Expr], budget: int = DEFAULT_BUDGET):
    """``chance_of(knowns, targets)`` for queries whose knowns and targets
    are taken from ``shown`` (looked up by id), all read off the walk of
    ``shown`` or one enumeration of it (``_pass``); ``variables`` as for
    ``chance``.

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
    variables, shown = _declared(variables), tuple(shown)
    return _pass(variables, shown, _walk(variables, shown), budget)


def _pass(variables: tuple, shown: tuple, walk: tuple, budget: int):
    """``chance_of(knowns, targets)`` over ``shown``, whose ``walk`` this
    is: off the walk when every term is plain, else off one pass, or
    ``chance`` per query when the pass is over the budget."""
    if type(budget) is not int or budget < 0:  # a bool is not an int here
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")
    if walk[2]:  # every term is plain
        return partial(_plain_chance, walk, budget=budget)
    try:
        return _TruthTables(variables, shown, walk, budget)
    except BudgetExceededError:
        return partial(chance, variables, budget=budget)  # each query may still fit alone


class SubbayesReport(NamedTuple):
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


def check_subbayes(variables: Sequence[tuple[str, int]], xi: Sequence[Expr], gamma: Sequence[Expr],
                   theta: Sequence[Expr], budget: int = DEFAULT_BUDGET) -> SubbayesReport:
    """Compare chance(xi -> gamma) * chance(xi,gamma -> theta) with chance(xi -> gamma,theta).

    The three chances are read off ``_pass`` over xi, gamma and theta (the
    last query's own terms, so over the budget exactly when that query is,
    and then each is asked alone): on a pass with no class to pin, off one
    split of each component's rows (``_TruthTables.product_rule``).

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
    variables, xi, gamma, theta = _declared(variables), tuple(xi), tuple(gamma), tuple(theta)
    context = xi + gamma
    _, reads, _, _ = walk = _walk(variables, shown := context + theta)
    chance_of = _pass(variables, shown, walk, budget)
    got = chance_of.product_rule(xi, gamma, theta) if isinstance(chance_of, _TruthTables) else None
    a, b, rhs = got or (chance_of(xi, gamma), chance_of(context, theta), chance_of(xi, gamma + theta))
    names, hashed = [0, 0, 0], [0, 0, 0]  # xi's, gamma's, theta's: variables by declaration, hash nodes
    for i, t in enumerate(reads):  # xi's analyses, then gamma's, then theta's
        side = (i >= len(xi)) + (i >= len(context))
        names[side] |= t[3]
        hashed[side] += len(t[1])
    left = a.numerator * b.numerator * rhs.denominator  # lhs and rhs over one denominator
    right = rhs.numerator * a.denominator * b.denominator
    independent = not (names[0] | names[1]) & names[2] and not (hashed[2] and (hashed[0] or hashed[1]))
    return SubbayesReport(a, b, rhs, left <= right, not names[0] & names[2], left == right, independent)


class GuardSpec(Slotted):
    """A guard-checking instance over one set of variable declarations,
    checked when built by the walk of all its terms, which
    ``check_prob_guard``'s pass reads."""

    __match_args__ = ("variables", "context", "target", "guards")
    __slots__ = __match_args__ + ("_walked",)  # (declarations, terms, their walk) for the pass

    def __init__(self, variables: tuple[tuple[str, int], ...], context: tuple[Expr, ...],
                 target: Expr, guards: tuple[tuple[Expr, ...], ...]):
        decls, shown = tuple(variables), (*context, target, *(e for g in guards for e in g))
        setfields(self, variables, context, target, guards, (decls, shown, _walk(decls, shown)))

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


class GuardRow(NamedTuple):
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


class GuardReport(NamedTuple):
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
    ``check_prob_guard`` answers every ask from one ``_pass`` over
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

    Every chance ``cover`` asks is read off ``_pass`` over all the spec's
    terms, from the walk made when the spec was built (``chances`` says
    what a union over the budget does).
    """
    return cover(spec.context, spec.target, spec.guards, _pass(*spec._walked, budget))


# ---------------------------------------------------------------------------
# Closed forms and identities.


def _width(claim: str, params: dict, name: str) -> int:
    """Parameter ``name`` of ``claim``, popped from ``params``: an int (not a bool) of at least 0."""
    try:
        value = params.pop(name)
    except KeyError:
        raise ValueError(f"claim {claim!r} needs parameter {name!r}") from None
    if type(value) is not int or value < 0:
        raise ValueError(f"claim {claim!r} needs parameter {name!r} to be an int >= 0, not {value!r}")
    return value


def analytic(claim: str, **params) -> Fraction:
    """Exact closed-form value for a named claim.

    hamming(delta): 2**-delta        kernel(kappa, ell): 2**(kappa-ell)
    monty/prequery/early(ell): (3/4)**ell      naive(ell): 2**-ell
    secret-guess(ell, secret_bits): hit + (1 - hit) * 2**-ell, hit = 2**-secret_bits
    Each parameter is a width: an int, not a bool, of at least 0; anything
    else is a ValueError naming the claim and the parameter.  Parameters a
    claim does not use are ignored.
    """
    if claim == "hamming":
        return Fraction(1, 2 ** _width(claim, params, "delta"))
    if claim == "kernel":
        kappa = _width(claim, params, "kappa")
        ell = _width(claim, params, "ell")
        if kappa > ell:
            raise ValueError(f"kernel size {kappa} not within 0..{ell}")
        return Fraction(2**kappa, 2**ell)
    if claim in ("monty", "prequery", "early"):
        return Fraction(3, 4) ** _width(claim, params, "ell")
    if claim == "naive":
        return Fraction(1, 2) ** _width(claim, params, "ell")
    if claim == "secret-guess":
        hit = Fraction(1, 2 ** _width(claim, params, "secret_bits"))
        return hit + (1 - hit) * Fraction(1, 2 ** _width(claim, params, "ell"))
    raise ValueError(f"unknown claim {claim!r}")


def binomial_identity_check(ell: int) -> tuple[Fraction, Fraction, bool]:
    """sum_i C(ell,i) 2**-i against (3/2)**ell, both exact."""
    ell = _width("binomial", {"ell": ell}, "ell")
    lhs = Fraction(sum(comb(ell, i) << ell - i for i in range(ell + 1)), 1 << ell)
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
    return exprs.Lit("".join(rng.choice("01") for _ in range(want)))  # "lit", or "concat" at one bit


def random_subbayes_case(
    rng: random.Random, max_total_bits: int = 12
) -> tuple[tuple[tuple[str, int], ...], tuple[Expr, ...], tuple[Expr, ...], tuple[Expr, ...]]:
    """One random (variables, xi, gamma, theta) case within the bit budget (at least 2)."""
    if max_total_bits < 2:
        raise ValueError(f"max_total_bits must be at least 2, got {max_total_bits!r}")
    n_vars = rng.randrange(2, min(5, max_total_bits + 1))
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
