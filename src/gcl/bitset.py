"""Fixed-width bit vectors used for object sets and attribute sets."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .value import Value, _set

# binary digits to the bytes itertools.compress selects by
_SELECT = bytes.maketrans(b"01", b"\0\1")


def _selectors(bits: int) -> bytes:
    """Byte t is 1 where bit t of bits is set, 0 elsewhere, up to its top bit."""
    return bin(bits).encode()[:1:-1].translate(_SELECT)


class BitSet(Value):
    """A subset of {0 .. width-1} stored as an int bitmask."""

    bits: int
    width: int

    # the one record built per object or attribute set: set directly, at
    # half the cost of Value's generic binding of fields
    def __init__(self, bits: int, width: int):
        if width < 0:
            raise ValueError(f"negative width {width}")
        if bits < 0 or bits.bit_length() > width:
            raise ValueError(f"bits 0x{bits:x} out of range for width {width}")
        _set(self, "bits", bits)
        _set(self, "width", width)

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
