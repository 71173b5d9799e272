"""Value semantics of the package's records and slotted value classes:
construction, validation, equality, hashing, immutability, pickling and
repr."""

import pickle
import random
from fractions import Fraction

import pytest

from hkbound import bits, exprs, harness, hkfun, oracle, protocol, symbolic

X, H = exprs.Var("x"), exprs.Var("h")
T = symbolic.parse("boxplus(z1,h)")
B = bits.BitString(2, 1)
ROW_ARGS = ((0, 2), Fraction(1, 2), Fraction(1, 4), None, 1, True, False)
ROW = oracle.GuardRow(*ROW_ARGS)

# (class, positional arguments, the same with one field changed)
VALUES = [
    (exprs.Var, ("x",), ("y",)),
    (exprs.Lit, ("01",), ("10",)),
    (exprs.Concat, ((X, exprs.Lit("0")),), ((X,),)),
    (exprs.Negate, (X,), (H,)),
    (exprs.Proj, (H, 1, 2), (H, 1, 1)),
    (exprs.BoxPlus, (X, H), (H, X)),
    (exprs.KernelMask, (X, H), (H, X)),
    (exprs.Hash, (X, 4), (X, 2)),
    (symbolic.Term, ("boxplus", T.args), ("boxplus", T.args[::-1])),
    (bits.BitString, (2, 1), (3, 1)),
    (hkfun.ResponseToken, (B, bits.BitString(2, 2)), (B, B)),
    (oracle.GuessScenario, ((("x", 2), ("h", 4)), (H,), (X,)), ((("x", 2), ("h", 4)), (), (X,))),
    (oracle.GuardSpec, ((("x", 1),), (X,), X, ((X,),)), ((("x", 1),), (X,), X, ())),
    (symbolic.AlgGuardSpec, (symbolic.HK, (T,), T, ()), (symbolic.DH, (T,), T, ())),
    (protocol.Verdict, (True, 3, (1, 2, 2), 1.5, "ok"), (False, 3, (1, 2, 2), 1.5, "too_far")),
    (harness.Estimate, (10, 3, 0.3, (0.1, 0.6), None, None), (10, 4, 0.4, (0.1, 0.6), None, None)),
    (oracle.SubbayesReport, (Fraction(1, 2),) * 3 + (True,) * 4, (Fraction(1, 4),) * 3 + (True,) * 4),
    (oracle.GuardRow, ROW_ARGS, ((0, 2), Fraction(1), *ROW_ARGS[2:])),
    (oracle.GuardReport, (Fraction(0), (ROW,), True), (Fraction(0), (), True)),
    (symbolic.Closure, (frozenset({T}), True), (frozenset(), True)),
    (symbolic.CollapsedReport, (0, (ROW,), True, True), (1, (ROW,), True, False)),
]


@pytest.mark.parametrize("cls, args, other", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_values_compare_hash_freeze_and_pickle_by_their_fields(cls, args, other):
    value = cls(*args)
    keyword = cls(**dict(zip(cls.__match_args__, args)))
    assert value == keyword and hash(value) == hash(keyword)
    assert value != cls(*other)
    if cls is not symbolic.AlgGuardSpec:  # a theory holds lambdas, so a spec never pickled
        assert pickle.loads(pickle.dumps(value)) == value
        assert len({value, keyword, pickle.loads(pickle.dumps(value))}) == 1
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == keyword


def test_equality_is_distinct_across_types():
    assert exprs.Var("01") != exprs.Lit("01")
    assert len({exprs.Var("01"), exprs.Lit("01")}) == 2
    assert exprs.BoxPlus(X, H) != exprs.KernelMask(X, H)
    assert len({exprs.BoxPlus(X, H), exprs.KernelMask(X, H), exprs.Var("x")}) == 3
    assert symbolic.atom("x") != exprs.Var("x")
    assert bits.BitString(1, 0) != (1, 0)


def test_term_hashes_once_and_compares_structurally():
    again = symbolic.parse("boxplus(z1,h)")
    assert again is not T and again == T and hash(again) == hash(T) == hash(("boxplus", T.args))
    assert symbolic.Term("h") == symbolic.atom("h") == symbolic.Term(op="h", args=())
    assert symbolic.parse("boxplus(z1,h)") != symbolic.parse("boxplus(z2,h)")
    assert T != "boxplus(z1,h)"


def test_reprs_match_the_dataclass_reprs():
    assert repr(exprs.Var("01")) == "Var(name='01')"
    assert repr(exprs.Lit("01")) == "Lit(text='01')"
    assert repr(exprs.Concat((exprs.Var("a"), exprs.Lit("0"), exprs.Negate(exprs.Var("b"))))) == (
        "Concat(parts=(Var(name='a'), Lit(text='0'), Negate(arg=Var(name='b'))))")
    assert repr(exprs.Proj(H, 1, 3)) == "Proj(arg=Var(name='h'), lo=1, hi=3)"
    assert repr(exprs.BoxPlus(X, exprs.Concat((H, exprs.Lit("1"))))) == (
        "BoxPlus(x=Var(name='x'), h=Concat(parts=(Var(name='h'), Lit(text='1'))))")
    assert repr(exprs.KernelMask(X, H)) == "KernelMask(x=Var(name='x'), h=Var(name='h'))"
    assert repr(T) == "Term(op='boxplus', args=(Term(op='z1', args=()), Term(op='h', args=())))"
    assert repr(protocol.Verdict(True, 3, (1, 2, 2), 1.5, "ok")) == (
        "Verdict(accepted=True, bits_correct=3, per_bit_rtt=(1, 2, 2), estimated_distance=1.5, reason='ok')")
    assert repr(ROW) == ("GuardRow(subset=(0, 2), lhs=Fraction(1, 2), advantage=Fraction(1, 4), "
                         "rhs=None, witness=1, ok=True, exempt=False)")
    assert repr(exprs.Hash(exprs.Concat((X, H)), 4)) == (
        "Hash(arg=Concat(parts=(Var(name='x'), Var(name='h'))), out_bits=4)")


def test_validation_messages_hold_in_both_forms():
    cases = [
        (exprs.Lit, ("012",), "not a bitstring literal: '012'"),
        (bits.BitString, (2, 4), "value 4 does not fit in 2 bits"),
        (bits.BitString, (-1, 0), "length must be >= 0, got -1"),
        (hkfun.ResponseToken, (B, bits.BitString(3, 1)), "half lengths differ: 2 vs 3"),
        (oracle.GuessScenario, ((("x", 1), ("x", 2)), (), ()), "duplicate variable declaration 'x'"),
        (oracle.GuessScenario, ((("x", -1),), (), ()), "variable 'x' width must be >= 0, got -1"),
        (oracle.GuessScenario, ((("x", 1),), (H,), ()), "undeclared variable 'h'"),
        (oracle.GuardSpec, ((("x", 1),), (X,), exprs.Proj(X, 1, 2), ()), "slice 1..2 out of range 1..1"),
    ]
    for cls, args, message in cases:
        for build in (lambda: cls(*args), lambda: cls(**dict(zip(cls.__match_args__, args)))):
            with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(".", r"\.")):
                build()


def test_records_default_their_trailing_fields():
    assert harness.Estimate(1, 1, 1.0, (0.2, 1.0)) == harness.Estimate(1, 1, 1.0, (0.2, 1.0), None, None)
    context = symbolic.TermContext(None, {"prover": frozenset({T})})
    assert context.of("prover") == {T} and context.of("verifier") == frozenset()
    assert pickle.loads(pickle.dumps(context)) == context
    with pytest.raises(AttributeError):
        context.cut_tick = 3
    with pytest.raises(TypeError):
        hash(context)  # a dict field, as before


def test_theories_equal_themselves_alone():
    twin = symbolic.Theory("hk", symbolic.HK.ops, symbolic.HK.step)
    assert symbolic.HK == symbolic.HK and twin != symbolic.HK
    assert len({symbolic.HK, twin, symbolic.THEORIES["hk"]}) == 2
    assert twin.destruct(T) == () and twin.compose(T) == () and twin.rules == ()
    with pytest.raises(AttributeError):
        twin.name = "other"
    assert repr(twin).startswith("Theory(name='hk', ops=(('pair', 2),")


def test_session_views_are_mutable_and_unhashable():
    cfg = protocol.ProtocolConfig(ell=2)
    args = (cfg, random.Random(0), 0, 0, 1, 0, 0b0110, None, None, 0)
    view = protocol.SessionView(*args)
    assert view == protocol.SessionView(**dict(zip(protocol.SessionView.__match_args__, args)))
    with pytest.raises(TypeError):
        hash(view)
    view.clock = 5
    assert view != protocol.SessionView(*args)
    assert repr(view).startswith("SessionView(cfg=ProtocolConfig(ell=2,")
    copy = pickle.loads(pickle.dumps(view))
    assert (copy.a, copy.b, copy.token, copy.clock) == (0, 1, 0b0110, 5)
    assert copy.respond_to(0, 1, 0b10) == view.respond_to(0, 1, 0b10)
