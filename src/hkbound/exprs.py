"""Expression trees over named bitstring variables.

These are the terms the guessing oracle enumerates: variables, literal
bitstrings, concatenation, bitwise negation, 1-based slicing, the
challenge-selection operator ``boxplus``, kernel masking, and an
idealised public hash.  Every expression has a static width computable
from the variable declarations, which lets scenarios be validated before
any enumeration starts.

Runtime values are plain tuples so the enumeration loop stays cheap:
``(length, value)`` for bitstrings and ``(length, value, stars)`` for
masked strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from .hkfun import kernel_mask, select

Value = tuple  # (length, value) or (length, value, stars)


class NeedHash(Exception):
    """Raised during evaluation when an oracle entry is not tabled yet."""

    def __init__(self, key: tuple, out_bits: int):
        self.key = key
        self.out_bits = out_bits
        super().__init__(f"hash entry missing for {key}")


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Lit:
    text: str

    def __post_init__(self) -> None:
        if set(self.text) - {"0", "1"}:
            raise ValueError(f"not a bitstring literal: {self.text!r}")


@dataclass(frozen=True, slots=True)
class Concat:
    parts: tuple["Expr", ...]


@dataclass(frozen=True, slots=True)
class Negate:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Proj:
    arg: "Expr"
    lo: int
    hi: int


@dataclass(frozen=True, slots=True)
class BoxPlus:
    """Challenge-selection: per-bit pick from the halves of a 2l-bit token."""

    x: "Expr"
    h: "Expr"


@dataclass(frozen=True, slots=True)
class KernelMask:
    """The challenge with its token-kernel positions blanked out."""

    x: "Expr"
    h: "Expr"


class Hash:
    """Public randomized hash applied to an argument expression.

    Instances are compared by identity; the enumeration engine treats
    each distinct argument value as an independent uniformly random
    table entry of ``out_bits`` bits.
    """

    __slots__ = ("arg", "out_bits")

    def __init__(self, arg: "Expr", out_bits: int):
        if out_bits < 0:
            raise ValueError("hash output width must be >= 0")
        self.arg = arg
        self.out_bits = out_bits

    def __repr__(self) -> str:
        return f"Hash({self.arg!r}, {self.out_bits})"


Expr = Union[Var, Lit, Concat, Negate, Proj, BoxPlus, KernelMask, Hash]


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Concat):
        out: set[str] = set()
        for p in e.parts:
            out |= free_vars(p)
        return out
    if isinstance(e, Negate):
        return free_vars(e.arg)
    if isinstance(e, Proj):
        return free_vars(e.arg)
    if isinstance(e, (BoxPlus, KernelMask)):
        return free_vars(e.x) | free_vars(e.h)
    if isinstance(e, Hash):
        return free_vars(e.arg)
    raise TypeError(f"not an expression: {e!r}")


def is_masked(e: Expr) -> bool:
    """Whether the expression produces a masked string rather than bits."""
    return isinstance(e, KernelMask)


def width(e: Expr, declared: dict[str, int]) -> int:
    """Static bit width; raises ValueError on malformed expressions.

    Masked strings are observations, not bit material, so a KernelMask
    may only appear at the top level of a known or target, never inside
    another operator.
    """
    if isinstance(e, Var):
        if e.name not in declared:
            raise ValueError(f"undeclared variable {e.name!r}")
        return declared[e.name]
    if isinstance(e, Lit):
        return len(e.text)
    if isinstance(e, Concat):
        for p in e.parts:
            if is_masked(p):
                raise ValueError("masked string cannot be concatenated")
        return sum(width(p, declared) for p in e.parts)
    if isinstance(e, Negate):
        if is_masked(e.arg):
            raise ValueError("masked string cannot be negated")
        return width(e.arg, declared)
    if isinstance(e, Proj):
        if is_masked(e.arg):
            raise ValueError("masked string cannot be sliced")
        w = width(e.arg, declared)
        if not (1 <= e.lo and e.lo <= e.hi + 1 and e.hi <= w):
            raise ValueError(f"slice {e.lo}..{e.hi} out of range 1..{w}")
        return e.hi - e.lo + 1
    if isinstance(e, (BoxPlus, KernelMask)):
        if is_masked(e.x) or is_masked(e.h):
            raise ValueError("masked string cannot feed a selection operator")
        wx = width(e.x, declared)
        wh = width(e.h, declared)
        if wh != 2 * wx:
            raise ValueError(f"token width {wh} is not twice the challenge width {wx}")
        return wx
    if isinstance(e, Hash):
        if is_masked(e.arg):
            raise ValueError("masked string cannot be hashed")
        width(e.arg, declared)
        return e.out_bits
    raise TypeError(f"not an expression: {e!r}")


def hash_nodes(e: Expr) -> list[Hash]:
    """All hash nodes in evaluation order, deduplicated by identity."""
    out: list[Hash] = []
    seen: set[int] = set()

    def walk(n: Expr) -> None:
        if isinstance(n, (Var, Lit)):
            return
        if isinstance(n, Concat):
            for p in n.parts:
                walk(p)
        elif isinstance(n, (Negate, Proj)):
            walk(n.arg)
        elif isinstance(n, (BoxPlus, KernelMask)):
            walk(n.x)
            walk(n.h)
        elif isinstance(n, Hash):
            walk(n.arg)
            if id(n) not in seen:
                seen.add(id(n))
                out.append(n)

    walk(e)
    return out


def evaluate(e: Expr, env: dict[str, Value], htable: dict, argrec: dict[int, tuple] | None = None) -> Value:
    """Evaluate under an environment and a (partial) hash table.

    Raises NeedHash when a hash node's entry is missing, so the caller
    can branch over all possible outputs and resume.  ``argrec`` records
    the argument key each hash node actually received; the oracle uses
    it to decide which table entries a guesser could have queried.
    """
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Lit):
        return (len(e.text), int(e.text, 2) if e.text else 0)
    if isinstance(e, Concat):
        length = 0
        value = 0
        for p in e.parts:
            pl, pv = evaluate(p, env, htable, argrec)[:2]
            length += pl
            value = (value << pl) | pv
        return (length, value)
    if isinstance(e, Negate):
        n, v = evaluate(e.arg, env, htable, argrec)[:2]
        return (n, v ^ ((1 << n) - 1))
    if isinstance(e, Proj):
        n, v = evaluate(e.arg, env, htable, argrec)[:2]
        w = e.hi - e.lo + 1
        return (w, (v >> (n - e.hi)) & ((1 << w) - 1))
    if isinstance(e, BoxPlus):
        xl, xv = evaluate(e.x, env, htable, argrec)[:2]
        hl, hv = evaluate(e.h, env, htable, argrec)[:2]
        return (xl, select(xv, hv >> xl, hv, xl))
    if isinstance(e, KernelMask):
        xl, xv = evaluate(e.x, env, htable, argrec)[:2]
        hl, hv = evaluate(e.h, env, htable, argrec)[:2]
        stars = kernel_mask(hv >> xl, hv, xl)
        return (xl, xv & ~stars, stars)
    if isinstance(e, Hash):
        al, av = evaluate(e.arg, env, htable, argrec)[:2]
        key = (al, av, e.out_bits)
        if argrec is not None:
            argrec[id(e)] = key
        if key not in htable:
            raise NeedHash(key, e.out_bits)
        return (e.out_bits, htable[key])
    raise TypeError(f"not an expression: {e!r}")


def to_json(e: Expr) -> dict[str, Any]:
    if isinstance(e, Var):
        return {"op": "var", "name": e.name}
    if isinstance(e, Lit):
        return {"op": "lit", "bits": e.text}
    if isinstance(e, Concat):
        return {"op": "concat", "args": [to_json(p) for p in e.parts]}
    if isinstance(e, Negate):
        return {"op": "negate", "arg": to_json(e.arg)}
    if isinstance(e, Proj):
        return {"op": "proj", "arg": to_json(e.arg), "lo": e.lo, "hi": e.hi}
    if isinstance(e, BoxPlus):
        return {"op": "boxplus", "x": to_json(e.x), "h": to_json(e.h)}
    if isinstance(e, KernelMask):
        return {"op": "kernel_mask", "x": to_json(e.x), "h": to_json(e.h)}
    if isinstance(e, Hash):
        return {"op": "hash", "arg": to_json(e.arg), "bits": e.out_bits}
    raise TypeError(f"not an expression: {e!r}")


def json_field(doc, key: str, kind, default=None, item=None):
    """``doc[key]`` of a parsed JSON object, which must be of type ``kind``.

    ``kind`` and ``item`` are a type or a tuple of types, and a bool is
    not an int here.  With ``item``, each entry of the list, or each value
    of the object, must be of that type.  A missing key gives ``default``
    when one is passed; every other mismatch is a ValueError naming the
    field.
    """
    def names(kinds) -> str:
        return " or ".join(k.__name__ for k in kinds)

    kinds = kind if isinstance(kind, tuple) else (kind,)
    items = item if isinstance(item, tuple) else (item,)
    if type(doc) is not dict:
        raise ValueError(f"expected a JSON object, got {doc!r}")
    if key not in doc and default is not None:
        return default
    if key not in doc:
        raise ValueError(f"missing the field {key!r}")
    value = doc[key]
    if type(value) not in kinds:
        raise ValueError(f"field {key!r} must be of type {names(kinds)}, got {value!r}")
    entries = value.values() if type(value) is dict else value
    if item is not None and any(type(v) not in items for v in entries):
        raise ValueError(f"field {key!r} must hold values of type {names(items)}, got {value!r}")
    return value


def from_json(doc: dict[str, Any]) -> Expr:
    def sub(key: str) -> Expr:
        return from_json(json_field(doc, key, dict))

    op = json_field(doc, "op", str)
    if op == "var":
        return Var(json_field(doc, "name", str))
    if op == "lit":
        return Lit(json_field(doc, "bits", str))
    if op == "concat":
        return Concat(tuple(from_json(d) for d in json_field(doc, "args", list)))
    if op == "negate":
        return Negate(sub("arg"))
    if op == "proj":
        return Proj(sub("arg"), json_field(doc, "lo", int), json_field(doc, "hi", int))
    if op == "boxplus":
        return BoxPlus(sub("x"), sub("h"))
    if op == "kernel_mask":
        return KernelMask(sub("x"), sub("h"))
    if op == "hash":
        return Hash(sub("arg"), json_field(doc, "bits", int))
    raise ValueError(f"unknown expression op {op!r}")


def render(e: Expr) -> str:
    """Compact text form for reports."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        return f"'{e.text}'"
    if isinstance(e, Concat):
        return "(" + "::".join(render(p) for p in e.parts) + ")"
    if isinstance(e, Negate):
        return f"~{render(e.arg)}"
    if isinstance(e, Proj):
        return f"{render(e.arg)}[{e.lo}..{e.hi}]"
    if isinstance(e, BoxPlus):
        return f"boxplus({render(e.x)},{render(e.h)})"
    if isinstance(e, KernelMask):
        return f"kmask({render(e.x)},{render(e.h)})"
    if isinstance(e, Hash):
        return f"H({render(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")
