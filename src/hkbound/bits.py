"""Fixed-length bitstrings.

Bit positions are 1-based and count from the most significant end, so
``BitString.from_text("10")`` has bit 1 equal to 1 and bit 2 equal to 0.
Values are stored as plain integers, which keeps hashing and bitwise
operations cheap even for strings of 2**16 bits and more.
"""

from __future__ import annotations

import random
from typing import Iterator

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

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {text!r}")
        return cls(len(text), int(text, 2) if text else 0)

    @classmethod
    def from_bits(cls, bits: Iterator[int] | list[int] | tuple[int, ...]) -> "BitString":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {b}")
            value = (value << 1) | b
            n += 1
        return cls(n, value)

    def text(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def bit(self, i: int) -> int:
        """Bit at 1-based position i, counting from the left."""
        if not 1 <= i <= self.length:
            raise IndexError(f"position {i} out of range 1..{self.length}")
        return (self.value >> (self.length - i)) & 1

    def bits(self) -> Iterator[int]:
        for i in range(self.length - 1, -1, -1):
            yield (self.value >> i) & 1

    def concat(self, other: "BitString") -> "BitString":
        return BitString(self.length + other.length, (self.value << other.length) | other.value)

    def negate(self) -> "BitString":
        return BitString(self.length, self.value ^ ((1 << self.length) - 1))

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return self.text()


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
