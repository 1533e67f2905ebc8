"""Deterministic random-bit source for the trusted harness.

The generator is SplitMix64: word k of the stream is the counter state
seed + (k+1)*gamma (mod 2^64), with gamma the golden-ratio increment,
finalized by two xor-multiply rounds and a last xor-shift. Bits are
consumed LSB-first within each output word, so the stream is reproducible
from the seed alone across implementations.

Because word k depends only on k, ``packed_bits`` evaluates every word at
once: the counter states of the even words sit in the 128-bit slots of one
integer and those of the odd words in another, each built by doubling.
Every round runs on the whole integer, with each slot masked to 64 bits
before a multiply so that its product stays inside the slot. The two
results interleave as even | odd << 64. The scalar one-word-at-a-time
definition lives in the tests as the oracle this is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK64 = (1 << 64) - 1
_INCREMENT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RngSpec:
    """Seed for the SplitMix64 bit stream driving the random inputs."""

    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def _mixed_slots(start: int, count: int) -> int:
    """SplitMix64 outputs for states start + 2j*gamma, j < count, word j in
    bits 128j..128j+63 of the result."""
    states, ones, m = start, 1, 1
    while m < count:  # slots m..2m-1 are slots 0..m-1 advanced m steps
        states |= (states + m * 2 * _INCREMENT * ones) << (128 * m)
        ones |= ones << (128 * m)
        m *= 2
    mask = (ones & ((1 << (128 * count)) - 1)) * MASK64
    z = states & mask
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    return (z ^ z >> 31) & mask


def packed_bits(spec: RngSpec, n: int) -> int:
    """First n stream bits packed with bit i of the stream at position i."""
    if n < 0:
        raise ValueError("negative bit count")
    count = (n + 63) // 64
    even = _mixed_slots(spec.seed + _INCREMENT, (count + 1) // 2)
    odd = _mixed_slots(spec.seed + 2 * _INCREMENT, count // 2)
    return (even | odd << 64) & ((1 << n) - 1)


def derive(spec: RngSpec, tag: int) -> RngSpec:
    """Independent sub-stream seed for auxiliary randomness (noise, stimulus)."""
    return RngSpec(packed_bits(RngSpec((spec.seed ^ tag) & MASK64), 64))
