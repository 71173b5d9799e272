"""Term algebras, derivability, and algebraic guard checking.

Terms are free applications of theory operators over named atoms.  A
theory contributes a normalizer (a confluent rewrite, applied in one
bottom-up pass) and optionally multi-premise inference rules, e.g. the
token-extraction step: responses to a challenge and to its negation
together surrender the whole token.

Derivability is decided, not searched for: analysis takes the known
terms apart to a fixpoint, which only ever yields their subterms, and
synthesis then asks whether the goal is known or built from derivable
arguments by an appliable operator.  The answer is exact for these
local theories (McAllester, JACM 1993); no budget bounds it.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from ._slotted import Slotted, setfields
from .exprs import MAX_DEPTH, TOO_DEEP, json_field, json_fields
from .oracle import GuardReport, GuardRow, cover, spec_caps


class Term(Slotted):
    __match_args__ = ("op", "args")
    __slots__ = __match_args__ + ("_hash",)  # computed once, from the children's own

    def __init__(self, op: str, args: tuple["Term", ...] = ()):
        object.__setattr__(self, "op", op)  # not ``setfields``: every rewrite builds terms
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((op, args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if type(other) is not Term:
            return NotImplemented
        return self is other or self._hash == other._hash and self.op == other.op and self.args == other.args

    def nodes(self) -> int:
        return 1 + sum(a.nodes() for a in self.args)

    def render(self) -> str:
        if not self.args:
            return self.op
        return f"{self.op}({','.join(a.render() for a in self.args)})"

    def __str__(self) -> str:
        return self.render()


def atom(name: str) -> Term:
    return Term(name)


def app(op: str, *args: Term) -> Term:
    return Term(op, tuple(args))


_TOKEN = re.compile(r"\s*([A-Za-z0-9_]+|[(),.])")


def parse(text: str) -> Term:
    """Parse the prefix syntax: ``pair(u,v)``, ``exp(g,x)``, ``H(s.a.b)``.

    A dot chain abbreviates right-nested pairing, so ``s.a.b`` reads as
    ``pair(s,pair(a,b))``.
    """
    if type(text) is not str:
        raise ValueError(f"a term must be a JSON string, got {text!r}")
    pos = 0

    def peek() -> str | None:
        m = _TOKEN.match(text, pos)
        return m.group(1) if m else None

    def take(expect: str | None = None) -> str:
        nonlocal pos
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"parse error at offset {pos} in {text!r}")
        tok = m.group(1)
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r} at offset {pos} in {text!r}, got {tok!r}")
        pos = m.end()
        return tok

    def parse_chain() -> Term:
        first = parse_app()
        items = [first]
        while peek() == ".":
            take(".")
            items.append(parse_app())
        out = items[-1]
        for t in reversed(items[:-1]):
            out = app("pair", t, out)
        return out

    def parse_app() -> Term:
        name = take()
        if not re.fullmatch(r"[A-Za-z0-9_]+", name):
            raise ValueError(f"expected a name in {text!r}, got {name!r}")
        if peek() != "(":
            return atom(name)
        take("(")
        args = [parse_chain()]
        while peek() == ",":
            take(",")
            args.append(parse_chain())
        take(")")
        return app(name, *args)

    out = parse_chain()
    if text[pos:].strip():
        raise ValueError(f"trailing input in {text!r}")
    return out


# ---------------------------------------------------------------------------
# Theories.


class Theory(Slotted):
    """Appliable operators with their arities, a normalizer, and the steps
    beyond applying an operator: ``destruct`` gives the destructor
    applications that take a known term apart, ``compose`` the other
    applications that normalize to a goal, and ``rules`` multi-premise
    inferences: each rule takes the known set and ``can``, the synthesizer
    over it that ``derive_closure`` built for the round, and yields terms.

    Every theory has pairing: ``rewrite`` tries the projection step before
    ``step``, and ``derive_closure`` projects a known pair before applying
    ``destruct``.  A root step, given a term whose arguments are normal,
    returns one whose arguments are normal, so ``normalize`` builds each
    node once and ``rewrite`` steps at its root alone.  Theories are
    module singletons, so a theory equals and hashes as itself alone.
    """

    __slots__ = __match_args__ = ("name", "ops", "step", "destruct", "compose", "rules")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, name: str, ops: tuple[tuple[str, int], ...],
                 step: Callable[[Term], Term | None] = lambda t: None,  # single root rewrite, None if stuck
                 destruct: Callable[[Term], Iterable[Term]] = lambda t: (),
                 compose: Callable[[Term], Iterable[Term]] = lambda goal: (),
                 rules: tuple[Callable[[frozenset, Callable[[Term], bool]], Iterable[Term]], ...] = ()):
        setfields(self, name, ops, step, destruct, compose, rules)

    def normalize(self, t: Term) -> Term:
        return self.rewrite(Term(t.op, tuple(self.normalize(a) for a in t.args)))

    def rewrite(self, t: Term) -> Term:
        while (nxt := _pairing_step(t) or self.step(t)) is not None:
            t = nxt
        return t


_PAIRING_OPS = (("pair", 2), ("p1", 1), ("p2", 1))


def _pairing_step(t: Term) -> Term | None:
    if t.op in ("p1", "p2") and len(t.args) == 1 and t.args[0].op == "pair" and len(t.args[0].args) == 2:
        return t.args[0].args[t.op == "p2"]
    return None


def _pairing_destruct(t: Term) -> Iterable[Term]:
    if t.op == "pair" and len(t.args) == 2:
        yield app("p1", t)
        yield app("p2", t)


def _dy_step(t: Term) -> Term | None:
    if (
        t.op == "sdec"
        and len(t.args) == 2
        and t.args[0].op == "senc"
        and len(t.args[0].args) == 2
        and t.args[0].args[1] == t.args[1]
    ):
        return t.args[0].args[0]
    return None


def _dy_destruct(t: Term) -> Iterable[Term]:
    if t.op == "senc" and len(t.args) == 2:
        yield app("sdec", t, t.args[1])


def _dh_step(t: Term) -> Term | None:
    if t.op == "exp" and len(t.args) >= 2:
        base = t.args[0]
        exps = list(t.args[1:])
        if base.op == "exp" and len(base.args) >= 2:
            return Term("exp", (base.args[0],) + tuple(base.args[1:]) + tuple(exps))
        ordered = sorted(exps, key=lambda e: e.render())
        if tuple(ordered) != tuple(exps):
            return Term("exp", (base,) + tuple(ordered))
    return None


def _dh_compose(goal: Term) -> Iterable[Term]:
    """exp(b, E) with two or more exponents is exp(exp(b, E minus e), e)."""
    if goal.op == "exp" and len(goal.args) > 2:
        for i in range(1, len(goal.args)):
            yield app("exp", Term("exp", goal.args[:i] + goal.args[i + 1:]), goal.args[i])


def _neg_step(t: Term) -> Term | None:
    if t.op == "neg" and len(t.args) == 1 and t.args[0].op == "neg" and len(t.args[0].args) == 1:
        return t.args[0].args[0]
    return None


def _neg_destruct(t: Term) -> Iterable[Term]:
    if t.op == "neg" and len(t.args) == 1:
        yield app("neg", t)


def _hk_extract(known: frozenset, can: Callable[[Term], bool]) -> Iterable[Term]:
    """From boxplus(t,u), boxplus(neg t,u) and a derivable t, recover u.
    Without t the exact chance of u from the two answers is (3/4)^l, not 1."""
    seen = {}
    for t in known:
        if t.op == "boxplus" and len(t.args) == 2:
            seen.setdefault(t.args[1], set()).add(t.args[0])
    for token, challenges in seen.items():
        for c in challenges:
            flipped = HK.rewrite(app("neg", c))
            if flipped in challenges and can(c):
                yield token
                break


def _cr_step(t: Term) -> Term | None:
    if (
        t.op == "respond"
        and len(t.args) == 2
        and t.args[0].op == "cVP"
        and len(t.args[0].args) == 1
        and t.args[1] == Term("sVP", ())
    ):
        return Term("rVP", (t.args[0].args[0],))
    return None


def _cr_compose(goal: Term) -> Iterable[Term]:
    if goal.op == "rVP" and len(goal.args) == 1:
        yield app("respond", app("cVP", goal.args[0]), atom("sVP"))


PAIRING = Theory("pairing", _PAIRING_OPS)

DOLEV_YAO = Theory("dolev-yao", _PAIRING_OPS + (("senc", 2), ("sdec", 2)), _dy_step, _dy_destruct)

DH = Theory("dh", _PAIRING_OPS + (("exp", 2),), _dh_step, compose=_dh_compose)

HK = Theory(
    "hk",
    _PAIRING_OPS + (("H", 1), ("boxplus", 2), ("neg", 1)),
    _neg_step,
    _neg_destruct,
    rules=(_hk_extract,),
)

# One verifier-prover pair's challenge-response alphabet: cVP tags a
# nonce as that pair's challenge and respond runs the (public) response
# computation, so both are appliable; rVP and sVP stay outside the
# appliable signature because a deduction that could mint them would be
# forging responses, or the pair secret, out of thin air.
CR = Theory("cr", _PAIRING_OPS + (("cVP", 1), ("respond", 2)), _cr_step, compose=_cr_compose)

THEORIES: dict[str, Theory] = {t.name: t for t in (PAIRING, DOLEV_YAO, DH, HK, CR)}


class Closure(NamedTuple):
    """The terms analysis keeps.  ``saturated`` is always True: analysis
    runs to its fixpoint, so no budget cuts it short."""

    terms: frozenset
    saturated: bool


def _synthesizer(known: frozenset, theory: Theory) -> Callable[[Term], bool]:
    """Whether a normal-form goal is known or an application over derivable arguments."""
    memo: dict[Term, bool] = {}

    def can(goal: Term) -> bool:
        if goal in known:
            return True
        if goal not in memo:
            direct = (goal,) if (goal.op, len(goal.args)) in theory.ops else ()
            memo[goal] = any(all(can(a) for a in application.args)
                             for application in (*direct, *theory.compose(goal)))
        return memo[goal]

    return can


def derive_closure(start: Iterable[Term], theory: Theory) -> Closure:
    """Analysis: the start terms taken apart to a fixpoint.

    Destructor applications and the theory's rules only yield subterms
    of known terms, so the fixpoint is finite and ``saturated`` is always
    True.  Every derivable term is synthesized from this set.
    """
    known = frozenset(theory.normalize(t) for t in start)
    while True:
        can = _synthesizer(known, theory)
        fresh = {theory.rewrite(a) for t in known
                 for a in (*_pairing_destruct(t), *theory.destruct(t))
                 if all(can(arg) for arg in a.args)}
        fresh.update(*(rule(known, can) for rule in theory.rules))
        if fresh <= known:
            return Closure(known, True)
        known |= fresh


def derivable(start: Iterable[Term], goal: Term, theory: Theory) -> bool:
    """Synthesis: whether the goal is built from the analysed start set."""
    return _synthesizer(derive_closure(start, theory).terms, theory)(theory.normalize(goal))


# ---------------------------------------------------------------------------
# Algebraic guards (all-or-nothing derivability).


class AlgGuardSpec(Slotted):
    __slots__ = __match_args__ = ("theory", "context", "target", "guards")

    def __init__(self, theory: Theory, context: tuple[Term, ...], target: Term,
                 guards: tuple[tuple[Term, ...], ...]):
        setfields(self, theory, context, target, guards)

    @classmethod
    def from_json(cls, doc: str | dict) -> "AlgGuardSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        json_fields(doc, ("theory", "context", "target", "guards"))
        name = json_field(doc, "theory", str, "pairing")
        if name not in THEORIES:
            raise ValueError(f"unknown theory {name!r} in field 'theory'; choose from {sorted(THEORIES)}")
        guards = json_field(doc, "guards", list, item=list)
        arity = dict(THEORIES[name].ops)

        def checked(t: Term, room: int = MAX_DEPTH) -> Term:
            """``t``, once it nests ``room`` levels or fewer and each theory operator in it has its arity."""
            if room == 0:
                raise ValueError(TOO_DEEP)
            n = arity.get(t.op, len(t.args))
            if t.args and not (len(t.args) == n or t.op == "exp" and len(t.args) > n):
                raise ValueError(f"term {t.render()!r} gives {t.op!r} {len(t.args)} arguments; theory {name!r} takes {n}")
            for a in t.args:
                checked(a, room - 1)
            return t

        context = tuple(checked(parse(t)) for t in json_field(doc, "context", list))
        target = checked(parse(json_field(doc, "target", str)))
        guards = tuple(tuple(checked(parse(t)) for t in g) for g in guards)
        spec_caps(context)
        return cls(THEORIES[name], context, target, guards)


def check_alg_guard(spec: AlgGuardSpec) -> GuardReport:
    """Whoever can derive the target can derive some guard set whole.

    This is ``oracle.cover`` with every chance 0 or 1: derivability.  A
    row derives the target iff its ``lhs`` is 1.  Derivability is
    monotone, so the subset and a guard it derives whole derive the
    target together, and the witness is the first such guard.  Each
    distinct known set is analysed once, whatever goals are asked of it.
    """
    theory = spec.theory
    synthesizers: dict[frozenset, Callable[[Term], bool]] = {}

    def c01(known: tuple[Term, ...], want: Sequence[Term]) -> int:
        key = frozenset(known)
        if key not in synthesizers:
            synthesizers[key] = _synthesizer(derive_closure(key, theory).terms, theory)
        can = synthesizers[key]
        return int(all(can(theory.normalize(w)) for w in want))

    return cover(spec.context, spec.target, spec.guards, c01)


class CollapsedReport(NamedTuple):
    baseline: int
    rows: tuple[GuardRow, ...]
    ok: bool
    agrees_with_algebraic: bool


def check_guard_deterministic(spec: AlgGuardSpec) -> CollapsedReport:
    """Guard check with guessing collapsed to zero-or-one derivability.

    The probabilistic reading exempts the subsets without advantage over
    the baseline, the chance of the target from nothing; the algebraic
    reading exempts only the subsets that do not derive the target.  The
    two coincide when the baseline is 0, and ``agrees_with_algebraic``
    says so.  No theory here has a nullary operator and every term has
    an atom at a leaf, so nothing is derivable from the empty context
    and the flag is always True.
    """
    report = check_alg_guard(spec)
    return CollapsedReport(report.baseline, report.rows, report.ok, report.baseline == 0)


# ---------------------------------------------------------------------------
# Term contexts over protocol runs.


class TermContext(NamedTuple):
    """What each principal held strictly before a cut point in a run."""

    cut_tick: int | None
    per_principal: dict[str, frozenset]

    def of(self, principal: str) -> frozenset:
        return self.per_principal.get(principal, frozenset())


def builtin_alg_guard_spec(name: str) -> AlgGuardSpec:
    """Bundled algebraic guard instances.

    dh: {{x, g^y}, {y, g^x}} guards g^(xy) among the terms floating
    around a Diffie-Hellman run.

    cr: {{cVP(x), sVP}} guards the response rVP(x) among what circulates
    before the response is sent: whoever can produce it held both the
    challenge and the pair secret.
    """
    if name == "dh":
        g, x, y = atom("g"), atom("x"), atom("y")
        gx, gy = app("exp", g, x), app("exp", g, y)
        return AlgGuardSpec(
            theory=DH,
            context=(g, x, y, gx, gy),
            target=app("exp", gx, y),
            guards=((x, gy), (y, gx)),
        )
    if name == "cr":
        challenge = app("cVP", atom("x"))
        secret = atom("sVP")
        return AlgGuardSpec(
            theory=CR,
            context=(challenge, secret, atom("n")),
            target=app("rVP", atom("x")),
            guards=((challenge, secret),),
        )
    raise ValueError(f"unknown builtin algebraic guard spec {name!r}")


@lru_cache(maxsize=4096)
def _label_term(theory: Theory, label: str) -> Term:
    return theory.normalize(parse(label))


def term_context(
    events: Sequence,
    before: Iterable,
    initial: dict[str, Iterable[Term | str]] | None = None,
    theory: Theory = HK,
) -> TermContext:
    """Collect per-principal term knowledge up to (not including) a cut.

    ``events`` are ``protocol.Event``s; each one's ``term`` is a label (a
    Term or a parseable string) or None.  The cut tick is the earliest
    tick of the events in ``before``, whether they are the log's own
    objects or equal copies; with none, the whole log counts.  A
    principal learns the labels of what it receives and freshly
    generates; initial long-term knowledge comes in via ``initial``.
    Runs repeat their labels, so a string label's normal form is
    memoised per (theory, label), in a bounded cache shared by all calls.
    """
    cut_tick = min((e.tick for e in before), default=None)

    held: dict[str, set] = {}

    def learn(principal: str, label) -> None:
        if label is None:
            return
        t = _label_term(theory, label) if isinstance(label, str) else theory.normalize(label)
        held.setdefault(principal, set()).add(t)

    for principal, terms in (initial or {}).items():
        for t in terms:
            learn(principal, t)
    for e in events:
        if cut_tick is not None and e.tick >= cut_tick:
            continue
        if e.kind in ("receive", "fresh"):
            learn(e.principal, e.term)
    return TermContext(cut_tick, {p: frozenset(s) for p, s in held.items()})
