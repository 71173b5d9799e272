"""Expression trees over named bitstring variables.

These are the terms the guessing oracle enumerates: variables, literal
bitstrings, concatenation, bitwise negation, 1-based slicing, the
challenge-selection operator ``boxplus``, kernel masking, and an
idealised public hash.  Every expression has a static width computable
from the variable declarations.  The oracle's analysis walk checks each
term as it reads it (``oracle._analyse``: declared variables, masks at
the top level only, slices in range, tokens twice their challenge's
width), and it runs when a scenario is built, before any enumeration.

``evaluate`` gives an expression's value under one environment as a
plain tuple: ``(length, value)`` for bitstrings and ``(length, value,
stars)`` for masked strings.  The oracle enumerates truth tables and
does not call it.
"""

from __future__ import annotations

from types import MappingProxyType
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


class Hash(Slotted):
    """Public randomized hash applied to an argument expression.

    Nodes with equal arguments and output widths are equal, as they read
    one table entry: the enumeration engine treats each distinct argument
    value as an independent uniformly random entry of ``out_bits`` bits.
    """

    __match_args__ = ("arg", "out_bits")
    __slots__ = __match_args__ + ("_hash",)  # computed once, from the argument's own

    def __init__(self, arg: "Expr", out_bits: int):
        if out_bits < 0:
            raise ValueError("hash output width must be >= 0")
        setfields(self, arg, out_bits, hash((arg, out_bits)))

    def __hash__(self) -> int:
        return self._hash


Expr = Union[Var, Lit, Concat, Negate, Proj, BoxPlus, KernelMask, Hash]


# Each node kind once: its JSON ``op``, and its JSON keys in its fields' order, each
# with the JSON type it holds (a ``dict`` is a subterm, a ``list`` a tuple of them).
NODES = MappingProxyType({
    Var: ("var", (("name", str),)),
    Lit: ("lit", (("bits", str),)),
    Concat: ("concat", (("args", list),)),
    Negate: ("negate", (("arg", dict),)),
    Proj: ("proj", (("arg", dict), ("lo", int), ("hi", int))),
    BoxPlus: ("boxplus", (("x", dict), ("h", dict))),
    KernelMask: ("kernel_mask", (("x", dict), ("h", dict))),
    Hash: ("hash", (("arg", dict), ("bits", int))),
})


def _fields(e: Expr) -> tuple:
    """``e``'s op and its (JSON key, kind, value) per field, in order."""
    if type(e) not in NODES:
        raise TypeError(f"not an expression: {e!r}")
    op, keys = NODES[type(e)]
    return op, [(key, kind, getattr(e, name)) for name, (key, kind) in zip(e.__match_args__, keys)]


def _subterms(e: Expr) -> list:
    """``e``'s direct subterms, in field order."""
    return [s for _, kind, v in _fields(e)[1] for s in ((v,) if kind is dict else v if kind is list else ())]


def free_vars(e: Expr, found: set[str] | None = None) -> set[str]:
    """The names of the variables in ``e``, added to ``found`` when given."""
    found = set() if found is None else found
    if type(e) is Var:
        found.add(e.name)
    for sub in _subterms(e):
        free_vars(sub, found)
    return found


def hash_nodes(e: Expr) -> list[Hash]:
    """All hash nodes in evaluation order, deduplicated by identity."""
    found: dict[int, Hash] = {}  # id -> node, in first-visit order
    _find_hashes(e, found)
    return list(found.values())


def _find_hashes(n: Expr, found: dict) -> None:
    for sub in _subterms(n) if type(n) in NODES else ():
        _find_hashes(sub, found)
    if type(n) is Hash:
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
    op, fields = _fields(e)
    return {"op": op, **{key: to_json(v) if kind is dict else [*map(to_json, v)] if kind is list else v
                         for key, kind, v in fields}}


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
    op = json_field(doc, "op", str)
    kind = next((k for k, row in NODES.items() if row[0] == op), None)
    if kind is None:
        raise ValueError(f"unknown expression op {op!r}")
    args = []  # each field checked, and each subterm read whole, before the next
    for key, of in NODES[kind][1]:
        value = json_field(doc, key, of)
        args.append(from_json(value) if of is dict else tuple(map(from_json, value)) if of is list else value)
    return kind(*args)


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
