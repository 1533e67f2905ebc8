"""Packed bit vectors and the one layer that converts to and from them.

A ``Bits`` value holds a fixed-length 0/1 sequence inside a single Python
integer, with index i stored at bit position i. Every stream type in this
package (simulation traces, leak taps, attack guesses, the image
demo's bitplanes) uses this representation so that bitwise logic and
counting run word-parallel over arbitrary lengths.

This module owns every list<->packed conversion: ``pack`` (0/1 sequence to
integer), ``unpack`` (integer to 0/1 list) and ``transpose`` (cycle-major
stream to per-column integers). Each is a linear pass over one binary
string, so no other module shifts a packed integer one bit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

_DIGIT = {0: "0", 1: "1"}


def pack(bits: Iterable[int]) -> int:
    """Pack a 0/1 sequence, element i at bit position i."""
    seq = list(bits)
    try:
        text = "".join([_DIGIT[b] for b in reversed(seq)])
    except (KeyError, TypeError):
        bad = next(b for b in seq if b not in (0, 1))
        raise ValueError("bit sequence contains %r" % (bad,)) from None
    return int(text or "0", 2)


def unpack(value: int, n: int) -> List[int]:
    """Bits 0..n-1 of a packed integer as 0/1 ints."""
    return list(map(int, format(value, "0%db" % n)[::-1][:n]))


def transpose(stream: int, count: int, width: int) -> Tuple[int, ...]:
    """Split a cycle-major stream (bit c*width+i is cycle c of column i)
    into width packed columns of count bits each."""
    text = format(stream, "0%db" % (count * width))[::-1][:count * width]
    return tuple(int(text[i::width][::-1] or "0", 2) for i in range(width))


@dataclass(frozen=True)
class Bits:
    value: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative bit count")
        if self.value < 0 or self.value >> self.n:
            raise ValueError("value does not fit in %d bits" % self.n)

    @classmethod
    def from_iterable(cls, bits: Iterable[int]) -> "Bits":
        seq = list(bits)
        return cls(pack(seq), len(seq))

    @classmethod
    def from_str(cls, text: str) -> "Bits":
        """Parse '0101...'; the leftmost character is index 0."""
        return cls.from_iterable(int(c) for c in text)

    @classmethod
    def zeros(cls, n: int) -> "Bits":
        return cls(0, n)

    @classmethod
    def ones(cls, n: int) -> "Bits":
        return cls((1 << n) - 1, n)

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(unpack(self.value, self.n))

    def _same_len(self, other: "Bits") -> None:
        if self.n != other.n:
            raise ValueError("length mismatch: %d vs %d" % (self.n, other.n))

    def __xor__(self, other: "Bits") -> "Bits":
        self._same_len(other)
        return Bits(self.value ^ other.value, self.n)

    def __and__(self, other: "Bits") -> "Bits":
        self._same_len(other)
        return Bits(self.value & other.value, self.n)

    def __or__(self, other: "Bits") -> "Bits":
        self._same_len(other)
        return Bits(self.value | other.value, self.n)

    def __invert__(self) -> "Bits":
        return Bits(~self.value & self.mask, self.n)

    def count(self) -> int:
        return self.value.bit_count()

    def fraction(self) -> float:
        if self.n == 0:
            raise ValueError("empty bit vector")
        return self.count() / self.n

    def accuracy(self, other: "Bits") -> float:
        """Fraction of positions where both vectors agree."""
        self._same_len(other)
        if self.n == 0:
            raise ValueError("empty bit vector")
        return 1.0 - (self.value ^ other.value).bit_count() / self.n

    def to01(self) -> str:
        return "".join(str(b) for b in self)
