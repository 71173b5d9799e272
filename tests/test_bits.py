"""Invariants of the bit-level carriers.

Mostly property-based: the constructor's checks, concatenation against
the bits' text, and the laws of Hamming distance.
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


def text(x: BitString) -> str:
    """The bits of ``x`` from the left, as '0' and '1'."""
    return format(x.value, f"0{x.length}b") if x.length else ""


def test_constructor_validation():
    with pytest.raises(ValueError):
        BitString(-1, 0)
    with pytest.raises(ValueError):
        BitString(2, 4)  # needs three bits
    with pytest.raises(ValueError):
        BitString(1, -1)


@given(bitstrings, bitstrings)
def test_concat_is_text_concatenation(x, y):
    assert text(concat(x, y)) == text(x) + text(y)


@given(st.lists(bitstrings, max_size=4))
def test_varargs_concat(parts):
    out = concat(*parts)
    assert text(out) == "".join(map(text, parts))


@given(bitstrings, bitstrings)
def test_hamming_symmetry(x, y):
    if x.length != y.length:
        with pytest.raises(ValueError):
            hamming_distance(x, y)
        return
    d = hamming_distance(x, y)
    assert d == hamming_distance(y, x)
    assert (d == 0) == (x == y)
    assert 0 <= d <= x.length
    assert hamming_distance(x, BitString(x.length, x.value ^ ((1 << x.length) - 1))) == x.length


def test_sample_uniform_is_seed_determined():
    a = sample_uniform(random.Random(9), 40)
    b = sample_uniform(random.Random(9), 40)
    assert a == b and a.length == 40
    with pytest.raises(ValueError):
        sample_uniform(random.Random(0), -1)
