"""Invariants of the bit-level carriers.

Mostly property-based: round trips between representations and the
algebraic laws of concatenation/negation/slicing.
"""

import random

import pytest
from hypothesis import given, strategies as st

from hkbound.bits import BitString, concat, hamming_distance, sample_uniform

bitstrings = st.integers(min_value=0, max_value=64).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda v: BitString(n, v)
    )
)


@given(bitstrings)
def test_text_roundtrip(x):
    assert BitString.from_text(x.text()) == x
    assert len(x.text()) == len(x)


@given(bitstrings)
def test_bits_roundtrip(x):
    assert BitString.from_bits(x.bits()) == x
    assert list(x.bits()) == [x.bit(i) for i in range(1, len(x) + 1)]


def test_positions_count_from_the_left():
    x = BitString.from_text("10")
    assert x.bit(1) == 1 and x.bit(2) == 0
    with pytest.raises(IndexError):
        x.bit(0)
    with pytest.raises(IndexError):
        x.bit(3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BitString(-1, 0)
    with pytest.raises(ValueError):
        BitString(2, 4)  # needs three bits
    with pytest.raises(ValueError):
        BitString.from_text("01a")
    with pytest.raises(ValueError):
        BitString.from_bits([0, 2])


@given(bitstrings, bitstrings)
def test_concat_is_text_concatenation(x, y):
    assert x.concat(y).text() == x.text() + y.text()


@given(st.lists(bitstrings, max_size=4))
def test_varargs_concat(parts):
    out = concat(*parts)
    assert out.text() == "".join(p.text() for p in parts)


@given(bitstrings)
def test_negate_involution(x):
    assert x.negate().negate() == x
    assert hamming_distance(x, x.negate()) == len(x)


@given(bitstrings, bitstrings)
def test_hamming_symmetry(x, y):
    if len(x) != len(y):
        with pytest.raises(ValueError):
            hamming_distance(x, y)
        return
    d = hamming_distance(x, y)
    assert d == hamming_distance(y, x)
    assert (d == 0) == (x == y)
    assert 0 <= d <= len(x)


def test_sample_uniform_is_seed_determined():
    a = sample_uniform(random.Random(9), 40)
    b = sample_uniform(random.Random(9), 40)
    assert a == b and len(a) == 40
    with pytest.raises(ValueError):
        sample_uniform(random.Random(0), -1)
