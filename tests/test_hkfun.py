"""The response function and token extraction.

The int primitives ``select`` and ``kernel_mask`` are checked against
their per-bit definitions, and every caller that evaluates them on
values (token extraction, expression evaluation) against them.
"""

import random

import pytest
from hypothesis import given, strategies as st

from hkbound.bits import BitString, sample_uniform
from hkbound.exprs import BoxPlus, KernelMask, Var, evaluate
from hkbound.hkfun import ResponseToken, extract_token, kernel_mask, select


def tok(text: str) -> ResponseToken:
    return ResponseToken.from_bits(BitString(len(text), int(text, 2)))


def bit(v: int, n: int, i: int) -> int:
    """Bit at 1-based position i from the left of an n-bit value."""
    return (v >> (n - i)) & 1


def respond(x: BitString, t: ResponseToken) -> BitString:
    """The response to challenge x from token t: x boxplus t."""
    return BitString(x.length, select(x.value, t.h0.value, t.h1.value, x.length))


def flipped(x: BitString) -> BitString:
    return BitString(x.length, x.value ^ ((1 << x.length) - 1))


def kernel(t: ResponseToken) -> int:
    return kernel_mask(t.h0.value, t.h1.value, t.h0.length)


def test_split_down_the_middle():
    t = tok("011010")
    assert t == ResponseToken(BitString(3, 0b011), BitString(3, 0b010))
    with pytest.raises(ValueError):
        ResponseToken.from_bits(BitString(3, 0b011))
    with pytest.raises(ValueError):
        ResponseToken(BitString(1, 0), BitString(2, 0b01))


def test_boxplus_selects_per_bit():
    # challenge bit 0 picks from h0, challenge bit 1 picks from h1
    t = tok("011010")
    assert respond(BitString(3, 0b000), t) == t.h0
    assert respond(BitString(3, 0b111), t) == t.h1
    assert respond(BitString(3, 0b010), t) == BitString(3, 0b011)


def test_boxplus_definition_exhaustively():
    # every (token, challenge) pair at ell <= 3 against the spelled-out rule
    for ell in (1, 2, 3):
        for hv in range(1 << (2 * ell)):
            t = ResponseToken.from_bits(BitString(2 * ell, hv))
            for xv in range(1 << ell):
                got = select(xv, t.h0.value, t.h1.value, ell)
                for i in range(1, ell + 1):
                    want = bit(t.h1.value, ell, i) if bit(xv, ell, i) else bit(t.h0.value, ell, i)
                    assert bit(got, ell, i) == want


def test_kernel_is_where_halves_agree():
    t = tok("011010")  # halves 011 and 010 agree on the first two positions
    assert kernel(t) == 0b110
    assert kernel(tok("0110")) == 0
    assert kernel(tok("0101")) == 0b11


@given(st.integers(0, 255))
def test_kernel_bits_ignore_the_challenge(hv):
    t = ResponseToken.from_bits(BitString(8, hv))
    answers = {select(x, t.h0.value, t.h1.value, 4) for x in range(16)}
    for i in range(1, 5):
        in_kernel = bit(kernel(t), 4, i)
        # kernel positions answer the same to every challenge; the others
        # take both values across challenges
        assert len({bit(a, 4, i) for a in answers}) == (1 if in_kernel else 2)


def test_extract_token_from_challenge_and_negation():
    rng = random.Random(3)
    for _ in range(50):
        t = ResponseToken.from_bits(sample_uniform(rng, 12))
        x = sample_uniform(rng, 6)
        assert extract_token(x, respond(x, t), respond(flipped(x), t)) == t


def test_extract_token_exhaustive_small():
    for ell in (1, 2):
        for hv in range(1 << (2 * ell)):
            t = ResponseToken.from_bits(BitString(2 * ell, hv))
            for xv in range(1 << ell):
                x = BitString(ell, xv)
                assert extract_token(x, respond(x, t), respond(flipped(x), t)) == t


def test_extract_token_validation():
    with pytest.raises(ValueError):
        extract_token(BitString(2, 0b01), BitString(1, 0), BitString(2, 0b01))


# --- int primitives against their per-bit definitions ----------------------

# (n, x, h0, h1): a width 0..64 and three n-bit values
selections = st.integers(min_value=0, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), *(st.integers(0, (1 << n) - 1),) * 3)
)



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
