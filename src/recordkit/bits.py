"""Packed bit streams and the one layer that converts to and from them.

A stream is a non-negative Python int with element i at bit position i.
Simulation traces, leak taps, attack guesses and the image demo's
bitplanes all use it, so bitwise logic and counting (``int.bit_count``)
run word-parallel over arbitrary lengths. The int does not carry its
length: the owner of a stream does (``SimTrace.cycles`` for a trace,
``width * height`` for an image), and complements mask to it.

This module owns every packed conversion: ``pack`` (0/1 sequence to int),
``unpack`` (int to 0/1 bytes, pack's inverse on bytes) and ``transpose``
(cycle-major stream to per-column ints). ``pack`` and ``unpack`` are a few
C-level passes over one binary string (a 256-entry translate table,
slicing, int<->text); ``transpose`` moves whole byte lanes of the stream
with shifts and masks and builds no text. No Python code runs once per bit.
"""

from __future__ import annotations

from typing import Iterable, Tuple

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


def unpack(value: int, n: int) -> bytes:
    """The low n bits of a packed integer as 0/1 bytes, bit 0 first."""
    return format(value, "0%db" % n)[::-1][:n].encode().translate(_BIT)


def transpose(stream: int, count: int, width: int) -> Tuple[int, ...]:
    """Split a cycle-major stream (bit c*width+i is cycle c of column i)
    into width packed columns of count bits each.

    Eight cycles are exactly width bytes, so byte j of every 8-cycle block
    forms lane j, and cycle 8k+r of column i is bit 8k + b%8 of lane b//8,
    where b = r*width + i. One shift by b%8 - r and one AND with bit r of
    every byte put that piece in place for all k at once: 8*width whole-int
    steps for any count (bit-matrix transposition by shifts and masks,
    Hacker's Delight 7-3). One column is the stream's low count bits.
    """
    if width == 1:
        return (stream & ((1 << count) - 1),)
    blocks = (count + 7) >> 3
    data = (stream & ((1 << count * width) - 1)).to_bytes(blocks * width,
                                                          "little")
    lanes = [int.from_bytes(data[j::width], "little") for j in range(width)]
    del data
    low = int.from_bytes(b"\1" * blocks, "little")  # bit 0 of every byte
    cols = [0] * width
    for r in range(8):
        mask = low << r
        for i in range(width):
            b = r * width + i
            s = (b & 7) - r
            lane = lanes[b >> 3]
            cols[i] |= (lane >> s if s >= 0 else lane << -s) & mask
    return tuple(cols)
