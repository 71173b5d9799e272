"""The response function, token extraction, and table-defined relatives.

The int primitives ``select`` and ``kernel_mask`` are checked against
their per-bit definitions, and every caller that evaluates them on
values (token extraction, expression evaluation) against them.
"""

import random

import pytest
from hypothesis import given, strategies as st

from hkbound.bits import BitString, sample_uniform
from hkbound.exprs import BoxPlus, KernelMask, Var, evaluate
from hkbound.hkfun import (
    Block,
    PartitionedFunction,
    ResponseToken,
    boxplus,
    canonical_form,
    eval_partitioned,
    extract_token,
    hk_function,
    kernel_mask,
    select,
)


def tok(text: str) -> ResponseToken:
    return ResponseToken.from_bits(BitString.from_text(text))


def test_split_down_the_middle():
    t = tok("011010")
    assert t.h0.text() == "011"
    assert t.h1.text() == "010"
    assert t.ell == 3
    assert t.bits().text() == "011010"
    with pytest.raises(ValueError):
        ResponseToken.from_bits(BitString.from_text("011"))
    with pytest.raises(ValueError):
        ResponseToken(BitString.from_text("0"), BitString.from_text("01"))


def test_boxplus_selects_per_bit():
    # challenge bit 0 picks from h0, challenge bit 1 picks from h1
    t = tok("011010")
    assert boxplus(BitString.from_text("000"), t) == t.h0
    assert boxplus(BitString.from_text("111"), t) == t.h1
    assert boxplus(BitString.from_text("010"), t).text() == "011"


def test_boxplus_length_check():
    with pytest.raises(ValueError):
        boxplus(BitString.from_text("01"), tok("011010"))


def test_boxplus_definition_exhaustively():
    # every (token, challenge) pair at ell <= 3 against the spelled-out rule
    for ell in (1, 2, 3):
        for hv in range(1 << (2 * ell)):
            t = ResponseToken.from_bits(BitString(2 * ell, hv))
            for xv in range(1 << ell):
                x = BitString(ell, xv)
                got = boxplus(x, t)
                for i in range(1, ell + 1):
                    want = t.h1.bit(i) if x.bit(i) else t.h0.bit(i)
                    assert got.bit(i) == want


def test_kernel_is_where_halves_agree():
    t = tok("011010")  # halves 011 and 010 agree on the first two positions
    assert t.kernel() == 0b110
    assert tok("0110").kernel() == 0
    assert tok("0101").kernel() == 0b11


@given(st.integers(0, 255))
def test_kernel_bits_ignore_the_challenge(hv):
    t = ResponseToken.from_bits(BitString(8, hv))
    answers = {boxplus(BitString(4, x), t) for x in range(16)}
    for i in range(1, 5):
        in_kernel = (t.kernel() >> (4 - i)) & 1
        # kernel positions answer the same to every challenge; the others
        # take both values across challenges
        assert len({a.bit(i) for a in answers}) == (1 if in_kernel else 2)


def test_extract_token_from_challenge_and_negation():
    rng = random.Random(3)
    for _ in range(50):
        t = ResponseToken.from_bits(sample_uniform(rng, 12))
        x = sample_uniform(rng, 6)
        assert extract_token(x, boxplus(x, t), boxplus(x.negate(), t)) == t


def test_extract_token_exhaustive_small():
    for ell in (1, 2):
        for hv in range(1 << (2 * ell)):
            t = ResponseToken.from_bits(BitString(2 * ell, hv))
            for xv in range(1 << ell):
                x = BitString(ell, xv)
                assert extract_token(x, boxplus(x, t), boxplus(x.negate(), t)) == t


def test_extract_token_validation():
    with pytest.raises(ValueError):
        extract_token(
            BitString.from_text("01"),
            BitString.from_text("0"),
            BitString.from_text("01"),
        )


# --- int primitives against their per-bit definitions ----------------------

# (n, x, h0, h1): a width 0..64 and three n-bit values
selections = st.integers(min_value=0, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), *(st.integers(0, (1 << n) - 1),) * 3)
)


def bit(v: int, n: int, i: int) -> int:
    """Bit at 1-based position i from the left of an n-bit value."""
    return (v >> (n - i)) & 1


@given(selections)
def test_select_picks_h1_where_the_challenge_is_set(case):
    n, x, h0, h1 = case
    got = select(x, h0, h1, n)
    assert got >> n == 0
    for i in range(1, n + 1):
        assert bit(got, n, i) == (bit(h1, n, i) if bit(x, n, i) else bit(h0, n, i))


@given(selections)
def test_extract_token_inverts_select(case):
    n, x, h0, h1 = case
    r0 = BitString(n, select(x, h0, h1, n))
    r1 = BitString(n, select(x ^ ((1 << n) - 1), h0, h1, n))
    t = extract_token(BitString(n, x), r0, r1)
    assert (t.h0.value, t.h1.value) == (h0, h1)


@given(selections)
def test_kernel_mask_marks_where_the_halves_agree(case):
    n, _x, h0, h1 = case
    k = kernel_mask(h0, h1, n)
    assert k >> n == 0
    for i in range(1, n + 1):
        assert bit(k, n, i) == (bit(h0, n, i) == bit(h1, n, i))
    assert ResponseToken(BitString(n, h0), BitString(n, h1)).kernel() == k


@given(selections)
def test_expression_operators_evaluate_to_the_primitives(case):
    n, x, h0, h1 = case
    env = {"x": (n, x), "h": (2 * n, (h0 << n) | h1)}
    k = kernel_mask(h0, h1, n)
    assert evaluate(BoxPlus(Var("x"), Var("h")), env, {}) == (n, select(x, h0, h1, n))
    assert evaluate(KernelMask(Var("x"), Var("h")), env, {}) == (n, x & ~k, k)


def test_kernel_mask_equality_ignores_hidden_bits():
    # halves 10 and 00 agree on position 2, so the challenge's second bit
    # is hidden: challenges 01 and 00 give the same observation
    h = Var("h")
    seen = [evaluate(KernelMask(Var("x"), h), {"x": (2, xv), "h": (4, 0b1000)}, {})
            for xv in (0b01, 0b00, 0b11)]
    assert seen[0] == seen[1] == (2, 0b00, 0b01)
    assert seen[2] == (2, 0b10, 0b01) != seen[0]


# --- partitioned functions --------------------------------------------------


def seeded_hk_block() -> Block:
    # one response bit driven by two seed bits acting as (h0_i, h1_i)
    return Block(in_bits=1, out_bits=1, seed_bits=2, table=((0, 0), (0, 1), (1, 0), (1, 1)))


def test_block_validation():
    with pytest.raises(ValueError):
        Block(1, 1, 1, ((0, 0),))  # one row, two expected
    with pytest.raises(ValueError):
        Block(1, 1, 0, ((0, 2),))  # value needs two bits
    with pytest.raises(ValueError):
        Block(1, 1, 0, ((0,),))  # row too short


def test_eval_partitioned_consumes_left_to_right():
    f = PartitionedFunction((seeded_hk_block(), seeded_hk_block()))
    assert f.in_bits == 2 and f.out_bits == 2 and f.seed_bits == 4
    assert f.is_bitwise()
    seed = BitString.from_text("0110")  # block 1 gets 01, block 2 gets 10
    assert eval_partitioned(f, seed, BitString.from_text("00")).text() == "01"
    assert eval_partitioned(f, seed, BitString.from_text("11")).text() == "10"
    with pytest.raises(ValueError):
        eval_partitioned(f, seed, BitString.from_text("0"))
    with pytest.raises(ValueError):
        eval_partitioned(f, BitString.from_text("0"), BitString.from_text("00"))


def test_hk_function_reproduces_boxplus():
    for hv in range(64):
        t = ResponseToken.from_bits(BitString(6, hv))
        f = hk_function(t)
        empty = BitString(0, 0)
        for xv in range(8):
            x = BitString(3, xv)
            assert eval_partitioned(f, empty, x) == boxplus(x, t)


def test_canonical_form_tabulates_tokens():
    f = PartitionedFunction((seeded_hk_block(), seeded_hk_block()))
    table = canonical_form(f)
    assert len(table) == 16
    # every seed's behaviour is challenge-selection from its token
    for seed, token in table.items():
        for xv in range(4):
            x = BitString(2, xv)
            assert eval_partitioned(f, seed, x) == boxplus(x, token)


def test_canonical_form_exhaustive_on_single_blocks():
    # all 1-bit tables with up to two seed bits collapse to their token
    for seed_bits in (0, 1, 2):
        rows = 1 << seed_bits
        for spec in range(1 << (2 * rows)):
            table = tuple(
                ((spec >> (2 * r)) & 1, (spec >> (2 * r + 1)) & 1) for r in range(rows)
            )
            f = PartitionedFunction((Block(1, 1, seed_bits, table),))
            for seed, token in canonical_form(f).items():
                for xv in (0, 1):
                    x = BitString(1, xv)
                    assert eval_partitioned(f, seed, x) == boxplus(x, token)


def test_canonical_form_needs_bitwise():
    wide = Block(2, 1, 0, ((0, 1, 1, 0),))
    with pytest.raises(ValueError):
        canonical_form(PartitionedFunction((wide,)))


def test_partitioned_json_roundtrip():
    f = PartitionedFunction((seeded_hk_block(),))
    assert PartitionedFunction.from_json(f.to_json()) == f
