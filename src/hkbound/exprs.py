"""Expression trees over named bitstring variables.

These are the terms the guessing oracle enumerates: variables, literal
bitstrings, concatenation, bitwise negation, 1-based slicing, the
challenge-selection operator ``boxplus``, kernel masking, and an
idealised public hash.  Every expression has a static width computable
from the variable declarations, which lets scenarios be validated before
any enumeration starts.

``evaluate`` gives an expression's value under one environment as a
plain tuple: ``(length, value)`` for bitstrings and ``(length, value,
stars)`` for masked strings.  The oracle enumerates truth tables and
does not call it.
"""

from __future__ import annotations

from typing import Any, Union

from ._slotted import Slotted, setfields
from .hkfun import kernel_mask, select

Value = tuple  # (length, value) or (length, value, stars)


class NeedHash(Exception):
    """Raised during evaluation when an oracle entry is not tabled yet."""

    def __init__(self, key: tuple, out_bits: int):
        self.key = key
        self.out_bits = out_bits
        super().__init__(f"hash entry missing for {key}")


class Var(Slotted):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        setfields(self, name)


class Lit(Slotted):
    __slots__ = __match_args__ = ("text",)

    def __init__(self, text: str):
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring literal: {text!r}")
        setfields(self, text)


class Concat(Slotted):
    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple["Expr", ...]):
        setfields(self, parts)


class Negate(Slotted):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: "Expr"):
        setfields(self, arg)


class Proj(Slotted):
    __slots__ = __match_args__ = ("arg", "lo", "hi")

    def __init__(self, arg: "Expr", lo: int, hi: int):
        setfields(self, arg, lo, hi)


class BoxPlus(Slotted):
    """Challenge-selection: per-bit pick from the halves of a 2l-bit token."""

    __slots__ = __match_args__ = ("x", "h")

    def __init__(self, x: "Expr", h: "Expr"):
        object.__setattr__(self, "x", x)  # not ``setfields``: queries build these
        object.__setattr__(self, "h", h)


class KernelMask(Slotted):
    """The challenge with its token-kernel positions blanked out."""

    __slots__ = __match_args__ = ("x", "h")

    def __init__(self, x: "Expr", h: "Expr"):
        object.__setattr__(self, "x", x)  # not ``setfields``: queries build these
        object.__setattr__(self, "h", h)


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


def free_vars(e: Expr, found: set[str] | None = None) -> set[str]:
    """The names of the variables in ``e``, added to ``found`` when given."""
    found = set() if found is None else found
    kind = type(e)
    if kind is Var:
        found.add(e.name)
    elif kind is Concat:
        for p in e.parts:
            free_vars(p, found)
    elif kind is BoxPlus or kind is KernelMask:
        free_vars(e.x, found)
        free_vars(e.h, found)
    elif kind is Negate or kind is Proj or kind is Hash:
        free_vars(e.arg, found)
    elif kind is not Lit:
        raise TypeError(f"not an expression: {e!r}")
    return found


def width(e: Expr, declared: dict[str, int]) -> int:
    """Static bit width; raises ValueError on malformed expressions.

    Masked strings are observations, not bit material, so a KernelMask
    may only appear at the top level of a known or target, never inside
    another operator.
    """
    kind = type(e)
    if kind is Var:
        if e.name not in declared:
            raise ValueError(f"undeclared variable {e.name!r}")
        return declared[e.name]
    if kind is Lit:
        return len(e.text)
    if kind is Concat:
        for p in e.parts:
            if type(p) is KernelMask:
                raise ValueError("masked string cannot be concatenated")
        return sum(width(p, declared) for p in e.parts)
    if kind is Negate:
        if type(e.arg) is KernelMask:
            raise ValueError("masked string cannot be negated")
        return width(e.arg, declared)
    if kind is Proj:
        if type(e.arg) is KernelMask:
            raise ValueError("masked string cannot be sliced")
        if type(e.lo) is not int or type(e.hi) is not int:  # a bool is not an int here
            raise ValueError(f"slice bounds must be ints, got {e.lo!r}..{e.hi!r}")
        w = width(e.arg, declared)
        if not (1 <= e.lo and e.lo <= e.hi + 1 and e.hi <= w):
            raise ValueError(f"slice {e.lo}..{e.hi} out of range 1..{w}")
        return e.hi - e.lo + 1
    if kind is BoxPlus or kind is KernelMask:
        if type(e.x) is KernelMask or type(e.h) is KernelMask:
            raise ValueError("masked string cannot feed a selection operator")
        wx = width(e.x, declared)
        wh = width(e.h, declared)
        if wh != 2 * wx:
            raise ValueError(f"token width {wh} is not twice the challenge width {wx}")
        return wx
    if kind is Hash:
        if type(e.arg) is KernelMask:
            raise ValueError("masked string cannot be hashed")
        if type(e.out_bits) is not int:
            raise ValueError(f"hash output width must be an int, got {e.out_bits!r}")
        width(e.arg, declared)
        return e.out_bits
    raise TypeError(f"not an expression: {e!r}")


def hash_nodes(e: Expr) -> list[Hash]:
    """All hash nodes in evaluation order, deduplicated by identity."""
    found: dict[int, Hash] = {}  # id -> node, in first-visit order
    _find_hashes(e, found)
    return list(found.values())


def _find_hashes(n: Expr, found: dict) -> None:
    kind = type(n)
    if kind is Concat:
        for p in n.parts:
            _find_hashes(p, found)
    elif kind is Negate or kind is Proj:
        _find_hashes(n.arg, found)
    elif kind is BoxPlus or kind is KernelMask:
        _find_hashes(n.x, found)
        _find_hashes(n.h, found)
    elif kind is Hash:
        _find_hashes(n.arg, found)
        found.setdefault(id(n), n)


def evaluate(e: Expr, env: dict[str, Value], htable: dict) -> Value:
    """Evaluate under an environment and a (partial) hash table, keyed by
    (argument length, argument value, output width); a key not tabled
    raises NeedHash."""
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Lit):
        return (len(e.text), int(e.text, 2) if e.text else 0)
    if isinstance(e, Concat):
        length = 0
        value = 0
        for p in e.parts:
            pl, pv = evaluate(p, env, htable)[:2]
            length += pl
            value = (value << pl) | pv
        return (length, value)
    if isinstance(e, Negate):
        n, v = evaluate(e.arg, env, htable)[:2]
        return (n, v ^ ((1 << n) - 1))
    if isinstance(e, Proj):
        n, v = evaluate(e.arg, env, htable)[:2]
        w = e.hi - e.lo + 1
        return (w, (v >> (n - e.hi)) & ((1 << w) - 1))
    if isinstance(e, BoxPlus):
        xl, xv = evaluate(e.x, env, htable)[:2]
        hl, hv = evaluate(e.h, env, htable)[:2]
        return (xl, select(xv, hv >> xl, hv, xl))
    if isinstance(e, KernelMask):
        xl, xv = evaluate(e.x, env, htable)[:2]
        hl, hv = evaluate(e.h, env, htable)[:2]
        stars = kernel_mask(hv >> xl, hv, xl)
        return (xl, xv & ~stars, stars)
    if isinstance(e, Hash):
        al, av = evaluate(e.arg, env, htable)[:2]
        key = (al, av, e.out_bits)
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


def json_fields(doc, allowed) -> None:
    """Check that ``doc`` is a parsed JSON object with no field outside ``allowed``."""
    if type(doc) is not dict:
        raise ValueError(f"expected a JSON object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}; expected only {sorted(allowed)}")


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
