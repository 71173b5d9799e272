"""The bit-selection response function and its relatives.

A responder holding a 2l-bit token h = h0::h1 answers an l-bit challenge
x with the string whose i-th bit is taken from h0 when x_i = 0 and from
h1 when x_i = 1: ``select(x, h0, h1, l)`` on ints, the paper's x boxplus
h.  Positions where the two token halves agree form the kernel of h
(``kernel_mask``); on those positions the answer does not depend on the
challenge at all, which is what the early-response and pre-ask analyses
exploit.
"""

from __future__ import annotations

from ._slotted import Slotted, setfields
from .bits import BitString, concat  # noqa: F401 (bench/layers.py patches hkfun.concat)


def select(x: int, h0: int, h1: int, n: int) -> int:
    """Challenge selection on n-bit ints: bit i is h1_i where x_i = 1, else h0_i.

    Only the low n bits of each argument matter.
    """
    return (h0 & ~x | h1 & x) & ((1 << n) - 1)


def kernel_mask(h0: int, h1: int, n: int) -> int:
    """The n-bit mask of the positions where h0 and h1 agree.

    Position i (1-based from the left) is bit n - i, as in ``BitString``.
    Only the low n bits of each argument matter.
    """
    return ~(h0 ^ h1) & ((1 << n) - 1)


class ResponseToken(Slotted):
    """A pair of equal-length token halves h0, h1."""

    __slots__ = __match_args__ = ("h0", "h1")

    def __init__(self, h0: BitString, h1: BitString):
        setfields(self, h0, h1)
        self.__post_init__()  # the checks, looked up on the class, where tracers patch them

    def __post_init__(self) -> None:
        if self.h0.length != self.h1.length:
            raise ValueError(f"half lengths differ: {self.h0.length} vs {self.h1.length}")

    @classmethod
    def from_bits(cls, h: BitString) -> "ResponseToken":
        """Split a 2l-bit string down the middle."""
        if h.length % 2:
            raise ValueError(f"token length must be even, got {h.length}")
        half = h.length // 2
        low = BitString(half, h.value & ((1 << half) - 1))
        return cls(BitString(half, h.value >> half), low) if half else cls(h, h)


def extract_token(x: BitString, r0: BitString, r1: BitString) -> ResponseToken:
    """Recover the full token from responses to a challenge and its negation.

    r0 must be the response to x and r1 the response to ~x.  Between the
    two challenges every position has seen both a 0 and a 1, so both
    halves of the token are pinned down exactly.
    """
    if not (x.length == r0.length == r1.length):
        raise ValueError("challenge and responses must have equal length")
    # Where x_i = 0, r0 carries h0_i and r1 carries h1_i; flipped elsewhere.
    n = x.length
    h0 = select(x.value, r0.value, r1.value, n)
    h1 = select(x.value, r1.value, r0.value, n)
    return ResponseToken(BitString(n, h0), BitString(n, h1))
