"""Fixed-width bit vectors used for object sets and attribute sets."""

from __future__ import annotations

from typing import Iterable, Iterator

from .value import Value


class BitSet(Value):
    """A subset of {0 .. width-1} stored as an int bitmask."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"negative width {self.width}")
        if self.bits < 0 or self.bits.bit_length() > self.width:
            raise ValueError(f"bits 0x{self.bits:x} out of range for width {self.width}")

    @classmethod
    def empty(cls, width: int) -> "BitSet":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "BitSet":
        return cls((1 << width) - 1, width)

    @classmethod
    def of(cls, indices: Iterable[int], width: int) -> "BitSet":
        bits = 0
        for i in indices:
            if not 0 <= i < width:
                raise ValueError(f"index {i} out of range for width {width}")
            bits |= 1 << i
        return cls(bits, width)

    def _check(self, other: "BitSet") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def __and__(self, other: "BitSet") -> "BitSet":
        self._check(other)
        return BitSet(self.bits & other.bits, self.width)

    def __or__(self, other: "BitSet") -> "BitSet":
        self._check(other)
        return BitSet(self.bits | other.bits, self.width)

    def __invert__(self) -> "BitSet":
        return BitSet(self.bits ^ ((1 << self.width) - 1), self.width)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.width and (self.bits >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def issubset(self, other: "BitSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: "BitSet") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def is_full(self) -> bool:
        return self.bits == (1 << self.width) - 1
