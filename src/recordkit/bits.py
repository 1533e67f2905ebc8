"""Packed bit vectors and the one layer that converts to and from them.

A ``Bits`` value holds a fixed-length 0/1 sequence inside a single Python
integer, with index i stored at bit position i. Every stream type in this
package (simulation traces, leak taps, attack guesses, the image
demo's bitplanes) uses this representation so that bitwise logic and
counting run word-parallel over arbitrary lengths.

This module owns every list<->packed conversion: ``pack`` (0/1 sequence to
integer), ``unpack`` (integer to 0/1 list) and ``transpose`` (cycle-major
stream to per-column integers). Each is a few C-level passes over one
binary string (a 256-entry translate table, slicing, int<->text), so no
Python code runs once per bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

_ASCII = b"01" + b"x" * 254  # bytes 0/1 to binary digits; others invalid
_BIT = bytes.maketrans(b"01", b"\0\1")


def pack(bits: Iterable[int]) -> int:
    """Pack a 0/1 sequence (ints or bools, or bytes as they are), element i
    at bit position i."""
    seq = bits if isinstance(bits, bytes) else list(bits)
    try:
        return int(bytes(seq)[::-1].translate(_ASCII) or b"0", 2)
    except (TypeError, ValueError):
        bad = next(b for b in seq if not isinstance(b, int) or b not in (0, 1))
        raise ValueError("bit sequence contains %r" % (bad,)) from None


def unpack(value: int, n: int) -> List[int]:
    """Bits 0..n-1 of a packed integer as 0/1 ints."""
    return list(format(value, "0%db" % n)[::-1][:n].encode().translate(_BIT))


def transpose(stream: int, count: int, width: int) -> Tuple[int, ...]:
    """Split a cycle-major stream (bit c*width+i is cycle c of column i)
    into width packed columns of count bits each."""
    n = count * width
    text = format(stream & ((1 << n) - 1), "0%db" % n)
    return tuple(int(text[width - 1 - i::width] or "0", 2)
                 for i in range(width))


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
    def from_str(cls, text: str) -> "Bits":
        """Parse '0101...'; the leftmost character is index 0."""
        return cls(pack(int(c) for c in text), len(text))

    @classmethod
    def zeros(cls, n: int) -> "Bits":
        return cls(0, n)

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1

    def __len__(self) -> int:
        return self.n

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

    def accuracy(self, other: "Bits") -> float:
        """Fraction of positions where both vectors agree."""
        self._same_len(other)
        if self.n == 0:
            raise ValueError("empty bit vector")
        return 1.0 - (self.value ^ other.value).bit_count() / self.n
