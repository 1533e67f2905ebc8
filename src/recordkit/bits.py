"""Packed bit streams and the one layer that converts to and from them.

A stream is a non-negative Python int with element i at bit position i.
Simulation traces, leak taps, attack guesses and the image demo's
bitplanes all use it, so bitwise logic and counting (``int.bit_count``)
run word-parallel over arbitrary lengths. The int does not carry its
length: the owner of a stream does (``SimTrace.cycles`` for a trace,
``width * height`` for an image), and complements mask to it.

This module owns every list<->packed conversion: ``pack`` (0/1 sequence to
integer), ``unpack`` (integer to 0/1 list) and ``transpose`` (cycle-major
stream to per-column integers). Each is a few C-level passes over one
binary string (a 256-entry translate table, slicing, int<->text), so no
Python code runs once per bit.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

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
    """The low n bits of a packed integer as 0/1 ints, bit 0 first."""
    return list(format(value, "0%db" % n)[::-1][:n].encode().translate(_BIT))


def transpose(stream: int, count: int, width: int) -> Tuple[int, ...]:
    """Split a cycle-major stream (bit c*width+i is cycle c of column i)
    into width packed columns of count bits each."""
    n = count * width
    text = format(stream & ((1 << n) - 1), "0%db" % n)
    return tuple(int(text[width - 1 - i::width] or "0", 2)
                 for i in range(width))
