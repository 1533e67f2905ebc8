"""Deterministic random-bit source for the trusted harness.

The generator is SplitMix64: a 64-bit counter advanced by the golden-ratio
increment, finalized by two xor-multiply rounds. Bits are consumed LSB-first
within each output word, so the stream is reproducible from the seed alone
across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .bits import Bits

MASK64 = (1 << 64) - 1
_INCREMENT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RngSpec:
    """Seed for the SplitMix64 bit stream driving the random inputs."""

    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def words(spec: RngSpec) -> Iterator[int]:
    state = spec.seed
    while True:
        state = (state + _INCREMENT) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def packed_bits(spec: RngSpec, n: int) -> int:
    """First n stream bits packed with bit i of the stream at position i."""
    if n < 0:
        raise ValueError("negative bit count")
    data = b"".join(w.to_bytes(8, "little")
                    for w in islice(words(spec), (n + 63) // 64))
    return int.from_bytes(data, "little") & ((1 << n) - 1)


def rng_bits(spec: RngSpec, n: int) -> Bits:
    """First n bits of the deterministic stream."""
    return Bits(packed_bits(spec, n), n)


def derive(spec: RngSpec, tag: int) -> RngSpec:
    """Independent sub-stream seed for auxiliary randomness (noise, stimulus)."""
    return RngSpec(next(words(RngSpec((spec.seed ^ tag) & MASK64))))
