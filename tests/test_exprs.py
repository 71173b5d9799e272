"""The node table against the per-kind code it replaced.

``to_json``, ``from_json``, ``free_vars`` and ``hash_nodes`` read each node
kind's fields off ``exprs.NODES``.  The reference functions below are the
per-kind versions they replaced, kept verbatim but for their names: on any
expression, and on any malformed document, both give the same output or
the same exception and message.
"""

import copy
import json
import typing
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from hkbound import exprs
from hkbound.exprs import BoxPlus, Concat, Hash, KernelMask, Lit, Negate, Proj, Var, json_field


# --- the per-kind reference ------------------------------------------------------


def free_vars_reference(e, found=None):
    found = set() if found is None else found
    kind = type(e)
    if kind is Var:
        found.add(e.name)
    elif kind is Concat:
        for p in e.parts:
            free_vars_reference(p, found)
    elif kind is BoxPlus or kind is KernelMask:
        free_vars_reference(e.x, found)
        free_vars_reference(e.h, found)
    elif kind is Negate or kind is Proj or kind is Hash:
        free_vars_reference(e.arg, found)
    elif kind is not Lit:
        raise TypeError(f"not an expression: {e!r}")
    return found


def hash_nodes_reference(e):
    found = {}
    _find_hashes_reference(e, found)
    return list(found.values())


def _find_hashes_reference(n, found):
    kind = type(n)
    if kind is Concat:
        for p in n.parts:
            _find_hashes_reference(p, found)
    elif kind is Negate or kind is Proj:
        _find_hashes_reference(n.arg, found)
    elif kind is BoxPlus or kind is KernelMask:
        _find_hashes_reference(n.x, found)
        _find_hashes_reference(n.h, found)
    elif kind is Hash:
        _find_hashes_reference(n.arg, found)
        found.setdefault(id(n), n)


def to_json_reference(e):
    if isinstance(e, Var):
        return {"op": "var", "name": e.name}
    if isinstance(e, Lit):
        return {"op": "lit", "bits": e.text}
    if isinstance(e, Concat):
        return {"op": "concat", "args": [to_json_reference(p) for p in e.parts]}
    if isinstance(e, Negate):
        return {"op": "negate", "arg": to_json_reference(e.arg)}
    if isinstance(e, Proj):
        return {"op": "proj", "arg": to_json_reference(e.arg), "lo": e.lo, "hi": e.hi}
    if isinstance(e, BoxPlus):
        return {"op": "boxplus", "x": to_json_reference(e.x), "h": to_json_reference(e.h)}
    if isinstance(e, KernelMask):
        return {"op": "kernel_mask", "x": to_json_reference(e.x), "h": to_json_reference(e.h)}
    if isinstance(e, Hash):
        return {"op": "hash", "arg": to_json_reference(e.arg), "bits": e.out_bits}
    raise TypeError(f"not an expression: {e!r}")


def from_json_reference(doc):
    def sub(key):
        return from_json_reference(json_field(doc, key, dict))

    op = json_field(doc, "op", str)
    if op == "var":
        return Var(json_field(doc, "name", str))
    if op == "lit":
        return Lit(json_field(doc, "bits", str))
    if op == "concat":
        return Concat(tuple(from_json_reference(d) for d in json_field(doc, "args", list)))
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


def outcome(f, *args):
    """``f(*args)``, or the type and message of what it raised."""
    try:
        return "returned", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# --- expressions and documents -------------------------------------------------


def _compound(sub):
    return st.one_of(
        st.lists(sub, max_size=3).map(lambda parts: Concat(tuple(parts))),
        sub.map(Negate),
        st.builds(Proj, sub, st.integers(-1, 6), st.integers(-1, 6)),
        st.builds(BoxPlus, sub, sub),
        st.builds(KernelMask, sub, sub),
        st.builds(Hash, sub, st.integers(0, 8)),
        sub.map(lambda t: Concat((t, Negate(t)))),  # one node met twice
    )


expressions = st.recursive(st.one_of(st.sampled_from("abs").map(Var), st.text("01", max_size=4).map(Lit)),
                           _compound, max_leaves=12)

SHARED = Hash(Var("a"), 2)
EXAMPLES = [
    Hash(Concat((Var("s"), Hash(Lit("01"), 2))), 4),
    KernelMask(Proj(Var("x"), 1, 2), Negate(Var("h"))),
    BoxPlus(Concat((SHARED, Hash(Var("a"), 2), SHARED)), Hash(SHARED, 0)),  # equal nodes listed apart
    Lit(""),
    Concat(()),
]


def _objects(doc, path=()):
    """Every JSON object in an expression document with its path, outermost first."""
    yield path, doc
    for key, value in doc.items():
        for i, v in enumerate(value) if type(value) is list else [(None, value)]:
            if type(v) is dict:
                yield from _objects(v, path + ((key,) if i is None else (key, i)))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


BAD_VALUES = [None, True, False, 1.5, -1, 0, 7, "", "01x", "nope", [], [5], [{}], {}, {"op": "var"}]


@st.composite
def malformed_documents(draw):
    """A valid expression document with one field of one object, at any depth, deleted or replaced."""
    doc = exprs.to_json(draw(expressions))
    path, obj = draw(st.sampled_from(list(_objects(doc))))
    doc = copy.deepcopy(doc)
    obj = _at(doc, path)
    key = draw(st.sampled_from(sorted(obj) + ["op"]))
    if draw(st.booleans()):
        obj.pop(key)
    else:
        obj[key] = draw(st.sampled_from(BAD_VALUES + ["hash", "concat", "kernel_mask"]))
    return doc


# --- the differential tests ----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(expressions)
@example(EXAMPLES[0])
@example(EXAMPLES[1])
@example(EXAMPLES[2])
@example(EXAMPLES[3])
@example(EXAMPLES[4])
def test_the_table_gives_the_per_kind_outputs(e):
    doc = exprs.to_json(e)
    assert doc == to_json_reference(e)
    assert json.dumps(doc) == json.dumps(to_json_reference(e))  # keys in the same order
    again = json.loads(json.dumps(doc))
    assert exprs.from_json(again) == from_json_reference(again) == e
    assert exprs.free_vars(e) == free_vars_reference(e)
    found, reference = {"z"}, {"z"}
    assert exprs.free_vars(e, found) is found and found == free_vars_reference(e, reference)
    assert [id(n) for n in exprs.hash_nodes(e)] == [id(n) for n in hash_nodes_reference(e)]


def test_equal_hash_nodes_are_listed_once_each_by_identity():
    e = EXAMPLES[2]
    assert e.x.parts[1] == SHARED and e.x.parts[1] is not SHARED
    assert [id(n) for n in exprs.hash_nodes(e)] == [id(SHARED), id(e.x.parts[1]), id(e.h)]


MALFORMED = [
    [],
    None,
    {},
    {"op": 3},
    {"op": "xor", "x": {"op": "var", "name": "a"}},
    {"op": "lit", "bits": "012"},
    {"op": "lit", "bits": 11},
    {"op": "hash", "arg": {"op": "var", "name": "a"}, "bits": -1},
    {"op": "hash", "arg": {"op": "var", "name": "a"}, "bits": True},
    {"op": "hash", "bits": 2},
    {"op": "proj", "arg": {"op": "var"}, "lo": "1"},  # the subterm's fault comes first
    {"op": "proj", "arg": {"op": "var", "name": "a"}, "hi": 2},
    {"op": "proj", "arg": [], "lo": 1, "hi": 2},
    {"op": "concat", "args": [{"op": "var", "name": "a"}, 5]},
    {"op": "concat", "args": {"op": "var", "name": "a"}},
    {"op": "concat"},
    {"op": "boxplus", "x": {"op": "lit", "bits": "2"}, "h": {"op": "nope"}},
    {"op": "kernel_mask", "x": {"op": "var", "name": "a"}},
    {"op": "negate", "arg": {"op": "negate", "arg": {"op": "negate", "arg": {"op": "lit"}}}},
]


@pytest.mark.parametrize("doc", MALFORMED, ids=lambda doc: json.dumps(doc)[:40])
def test_a_malformed_document_reports_the_per_kind_fault(doc):
    got = outcome(exprs.from_json, doc)
    assert got[0] is ValueError
    assert got == outcome(from_json_reference, doc)


@settings(max_examples=300, deadline=None)
@given(malformed_documents())
def test_any_malformed_document_reports_the_per_kind_fault(doc):
    assert outcome(exprs.from_json, doc) == outcome(from_json_reference, doc)


@pytest.mark.parametrize("e", [5, "a", None, Concat((Var("a"), 5)), Proj([], 1, 2),
                               BoxPlus(Hash(Var("b"), 1), "h"), Hash(Concat((Var("c"), (Var("d"),))), 1)],
                         ids=repr)
def test_a_non_expression_is_the_same_type_error(e):
    for f, reference in ((exprs.to_json, to_json_reference), (exprs.free_vars, free_vars_reference)):
        got = outcome(f, e)
        assert got[0] is TypeError and got == outcome(reference, e)
    found, reference = set(), set()  # the names met before the fault stay added
    assert outcome(exprs.free_vars, e, found) == outcome(free_vars_reference, e, reference)
    assert found == reference
    # hash_nodes passes over what is not an expression
    assert [id(n) for n in exprs.hash_nodes(e)] == [id(n) for n in hash_nodes_reference(e)]
    assert exprs.hash_nodes(5) == []


def test_every_node_kind_has_exactly_one_row():
    kinds = typing.get_args(exprs.Expr)
    assert type(exprs.NODES) is MappingProxyType
    assert list(exprs.NODES) == list(kinds)
    ops = [op for op, _ in exprs.NODES.values()]
    assert len(set(ops)) == len(ops)
    for kind, (_, keys) in exprs.NODES.items():
        assert len(keys) == len(kind.__match_args__)
        assert all(type(key) is str and of in (dict, list, str, int) for key, of in keys)
