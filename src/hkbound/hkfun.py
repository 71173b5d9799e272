"""The bit-selection response function and its relatives.

A responder holding a 2l-bit token h = h0::h1 answers an l-bit challenge
x with the string whose i-th bit is taken from h0 when x_i = 0 and from
h1 when x_i = 1.  We write the operation ``boxplus(x, h)``.  Positions
where the two token halves agree form the kernel of h; on those
positions the answer does not depend on the challenge at all, which is
what the early-response and pre-ask analyses exploit.

Table-defined partitioned functions generalise this: the input is cut
into blocks, each block is mapped through its own lookup table, possibly
consuming private random seed bits, and the outputs are concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString, concat


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


@dataclass(frozen=True, slots=True)
class ResponseToken:
    """A pair of equal-length token halves h0, h1."""

    h0: BitString
    h1: BitString

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

    @property
    def ell(self) -> int:
        return self.h0.length

    def bits(self) -> BitString:
        return self.h0.concat(self.h1)

    def kernel(self) -> int:
        """Positions where the two halves agree, as a ``kernel_mask``."""
        return kernel_mask(self.h0.value, self.h1.value, self.ell)

    def text(self) -> str:
        return self.bits().text()


def boxplus(x: BitString, h: ResponseToken) -> BitString:
    """Per-bit half selection: bit i of the result is h[x_i]_i."""
    if x.length != h.ell:
        raise ValueError(f"challenge length {x.length} != token half length {h.ell}")
    return BitString(x.length, select(x.value, h.h0.value, h.h1.value, x.length))


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


@dataclass(frozen=True)
class Block:
    """One block of a partitioned function: a table over (seed, input)."""

    in_bits: int
    out_bits: int
    seed_bits: int
    table: tuple[tuple[int, ...], ...]  # table[seed][input] -> output value

    def __post_init__(self) -> None:
        if min(self.in_bits, self.out_bits, self.seed_bits) < 0:
            raise ValueError("block widths must be >= 0")
        if len(self.table) != 1 << self.seed_bits:
            raise ValueError(f"expected {1 << self.seed_bits} seed rows, got {len(self.table)}")
        for row in self.table:
            if len(row) != 1 << self.in_bits:
                raise ValueError(f"expected {1 << self.in_bits} entries per row, got {len(row)}")
            for v in row:
                if not 0 <= v < (1 << self.out_bits):
                    raise ValueError(f"table value {v} does not fit in {self.out_bits} bits")


@dataclass(frozen=True)
class PartitionedFunction:
    """A concatenation of independent table-defined blocks.

    Input bits are consumed left to right by the blocks, as are the bits
    of the private seed.  ``bitwise`` means every block reads exactly one
    input bit and writes exactly one output bit.
    """

    blocks: tuple[Block, ...]

    @property
    def in_bits(self) -> int:
        return sum(b.in_bits for b in self.blocks)

    @property
    def out_bits(self) -> int:
        return sum(b.out_bits for b in self.blocks)

    @property
    def seed_bits(self) -> int:
        return sum(b.seed_bits for b in self.blocks)

    def is_bitwise(self) -> bool:
        return all(b.in_bits == 1 and b.out_bits == 1 for b in self.blocks)


def eval_partitioned(f: PartitionedFunction, seed: BitString, x: BitString) -> BitString:
    """Apply f to x under the given seed assignment."""
    if x.length != f.in_bits:
        raise ValueError(f"input length {x.length} != {f.in_bits}")
    if seed.length != f.seed_bits:
        raise ValueError(f"seed length {seed.length} != {f.seed_bits}")
    out = []
    xpos = 1
    spos = 1
    for b in f.blocks:
        xin = x.slice(xpos, xpos + b.in_bits - 1).value if b.in_bits else 0
        sin = seed.slice(spos, spos + b.seed_bits - 1).value if b.seed_bits else 0
        out.append(BitString(b.out_bits, b.table[sin][xin]))
        xpos += b.in_bits
        spos += b.seed_bits
    return concat(*out)


def canonical_form(f: PartitionedFunction) -> dict[BitString, ResponseToken]:
    """Token table of a bitwise partitioned function.

    For every seed value the function collapses to challenge-selection
    from the token f(0...0)::f(1...1); the returned map sends each seed
    to that token.  Raises if some block is not 1-bit to 1-bit.
    """
    if not f.is_bitwise():
        raise ValueError("canonical form requires a bitwise partitioned function")
    ell = f.in_bits
    zeros = BitString(ell, 0)
    ones = BitString(ell, (1 << ell) - 1)
    table = {}
    for sv in range(1 << f.seed_bits):
        seed = BitString(f.seed_bits, sv)
        table[seed] = ResponseToken(eval_partitioned(f, seed, zeros), eval_partitioned(f, seed, ones))
    return table


def hk_function(h: ResponseToken) -> PartitionedFunction:
    """The challenge-selection map for a fixed token, as explicit tables."""
    blocks = []
    for i in range(1, h.ell + 1):
        blocks.append(Block(1, 1, 0, ((h.h0.bit(i), h.h1.bit(i)),)))
    return PartitionedFunction(tuple(blocks))
