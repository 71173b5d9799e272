"""Fixed-length bitstrings.

A ``BitString(length, value)`` holds its bits as one plain integer, bit
1 (counting from the left, 1-based) the most significant, so
``BitString(2, 0b10)`` has bit 1 equal to 1 and bit 2 equal to 0.  The
session path carries plain ints; these carriers serve token extraction
(``hkfun``) and library callers.
"""

from __future__ import annotations

import random

from ._slotted import Slotted, setfields


class BitString(Slotted):
    """An immutable string over {0,1} of explicit length (possibly zero)."""

    __slots__ = __match_args__ = ("length", "value")

    def __init__(self, length: int, value: int):
        setfields(self, length, value)
        self.__post_init__()  # the checks, looked up on the class, where tracers patch them

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        if self.value < 0 or self.value >> self.length:
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")


def hamming_distance(a: BitString, b: BitString) -> int:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return (a.value ^ b.value).bit_count()


def concat(*parts: BitString) -> BitString:
    length = value = 0
    for p in parts:
        value = (value << p.length) | p.value
        length += p.length
    return BitString(length, value)


def sample_uniform(rng: random.Random, length: int) -> BitString:
    """Uniform bitstring of the given length from an injected generator.

    All randomness in this package flows through explicitly seeded
    ``random.Random`` instances; nothing reads ambient entropy.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return BitString(length, rng.getrandbits(length) if length else 0)
