"""Multi-cycle simulation of partitioned designs and the equivalence oracle.

A trace stores one packed integer per wire, bit c holding the wire's value
in cycle c, so an entire run is a single word-parallel evaluation. The
trace's ``cycles`` is the length of every one of those words. The
random inputs consume G fresh bits per cycle, group 1 first, of the stream
the caller passes: a design carries none, as the fabricated part carries
none.

A Stimulus is frozen, so it can key a memo. from_file checks each line of
an untrusted file once, as text, reads all the lines as one cycle-major
stream and splits that into columns through byte lanes (bits.transpose);
no code runs once per bit.

Exhaustive equivalence checking drives every wire with the classic binary
counter columns (input p toggles with period 2^(p+1)); the first
counterexample in counter order is reported, which keeps the verdict
deterministic no matter how the sweep might be split up. The columns come
from ``exhaustive_columns``, which trojan's per-vector leak counts share.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Optional, Tuple

from .bits import transpose, unpack
from .netlist import Netlist, open_text
from .recordize import PartitionedDesign
from .rng import RngSpec, packed_bits

__all__ = [
    "EXHAUSTIVE_BIT_LIMIT", "Counterexample", "RngSpec", "SimTrace",
    "SimulationError", "Stimulus", "Verdict", "exhaustive_columns",
    "r_columns", "simulate", "simulate_netlist", "verify_equivalence",
]

EXHAUSTIVE_BIT_LIMIT = 22


class SimulationError(Exception):
    pass


@dataclass(frozen=True)
class Stimulus:
    """Per-cycle primary-input vectors: explicit rows or a uniform spec.

    Uniform stimuli draw bits cycle-major (all of cycle 0's inputs before
    cycle 1's), first declared input first, from their own seed.
    """

    count: int
    columns: Optional[Tuple[int, ...]] = None
    seed: int = 0

    @classmethod
    def uniform(cls, count: int, seed: int = 0) -> "Stimulus":
        if count < 1:
            raise ValueError("need at least one cycle")
        return cls(count=count, seed=seed)

    @classmethod
    def from_file(cls, path) -> "Stimulus":
        """One binary string per line, first character the first declared
        input; '#' starts a comment and blank lines are skipped."""
        rows = []
        with open_text(path) as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.strip("01"):
                    raise ValueError("line %d: stimulus vectors are binary "
                                     "strings" % lineno)
                if rows and len(line) != len(rows[0]):
                    raise ValueError("line %d: vector has width %d, expected "
                                     "%d" % (lineno, len(line), len(rows[0])))
                rows.append(line)
        if not rows:
            raise ValueError("empty stimulus")
        stream = int("".join(rows)[::-1], 2)
        return cls(len(rows), transpose(stream, len(rows), len(rows[0])))

    def bound(self, width: int) -> Tuple[int, Tuple[int, ...]]:
        """Materialize packed per-input columns for the given input count."""
        if self.columns is not None:
            if len(self.columns) != width:
                raise SimulationError("stimulus width %d does not match the "
                                      "%d design inputs"
                                      % (len(self.columns), width))
            return self.count, self.columns
        return self.count, r_columns(RngSpec(self.seed), self.count, width)


@dataclass
class SimTrace:
    """Full per-cycle wire valuation, packed one integer per wire."""

    netlist: Netlist
    cycles: int
    wires: Dict[str, int]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["cycle", "wire", "value"])
            for wire in self.netlist.wires():
                w.writerows(zip(range(self.cycles), repeat(wire),
                                unpack(self.wires[wire], self.cycles)))

    def summary(self) -> dict:
        outputs = {o: self.wires[o].bit_count() for o in self.netlist.outputs}
        return {"cycles": self.cycles,
                "inputs": list(self.netlist.inputs),
                "wire_count": len(self.wires),
                "output_ones": outputs}


def r_columns(rng: RngSpec, cycles: int, groups: int) -> Tuple[int, ...]:
    """Packed per-group random columns; cycle c uses stream bits
    c*groups .. c*groups+groups-1, group 1 first."""
    return transpose(packed_bits(rng, cycles * groups), cycles, groups)


def exhaustive_columns(k: int) -> Tuple[int, ...]:
    """The k binary counter columns over 2^k lanes: lane j carries bit p of
    j in column p, so lane j holds the input vector whose bit p is input p."""
    ones = (1 << (1 << k)) - 1  # column p: 2^p zeros, 2^p ones, repeated
    return tuple((((1 << b) - 1) << b) * (ones // ((1 << 2 * b) - 1))
                 for b in (1 << p for p in range(k)))


def simulate(d: PartitionedDesign, stim: Stimulus, rng: RngSpec) -> SimTrace:
    """Drive a partitioned design: stimulus on the source inputs, fresh
    bits of the caller's stream on the random inputs, full valuation
    recorded."""
    count, cols = stim.bound(len(d.source_inputs))
    values = dict(zip(d.source_inputs, cols))
    rcols = r_columns(rng, count, d.config.groups)
    values.update(zip(d.random_wires, rcols))
    wires = d.netlist.evaluator.run(values, mask=(1 << count) - 1)
    return SimTrace(d.netlist, count, wires)


def simulate_netlist(n: Netlist, stim: Stimulus) -> SimTrace:
    """Plain-netlist counterpart of simulate (no random inputs)."""
    count, cols = stim.bound(len(n.inputs))
    values = dict(zip(n.inputs, cols))
    wires = n.evaluator.run(values, mask=(1 << count) - 1)
    return SimTrace(n, count, wires)


@dataclass(frozen=True)
class Counterexample:
    """A failing case: its index, inputs, random bits and both outputs."""

    index: int
    x: Dict[str, int]
    r: Dict[str, int]
    expected: Dict[str, int]
    got: Dict[str, int]


@dataclass(frozen=True)
class Verdict:
    """How many cases a check ran, in which mode, and the first failure."""

    cases: int
    mode: str
    counterexample: Optional[Counterexample] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def check_interface(original: Netlist, d: PartitionedDesign) -> None:
    """Raise ValueError unless d was transformed from original's ports."""
    if original.inputs != d.source_inputs:
        raise ValueError("original inputs %s do not match the design's "
                         "source inputs %s"
                         % (list(original.inputs), list(d.source_inputs)))
    if tuple(original.outputs) != d.source_outputs:
        raise ValueError("original outputs do not match the design's "
                         "source outputs")


def verify_equivalence(original: Netlist, d: PartitionedDesign,
                       mode: str = "exhaustive", samples: int = 10000,
                       seed: int = 0) -> Verdict:
    """Check that the decoded outputs equal the original outputs.

    Exhaustive mode sweeps all 2^(inputs+G) combinations (error above
    EXHAUSTIVE_BIT_LIMIT total bits); sampled mode draws uniform
    combinations. Either way the first failing combination in enumeration
    order is the reported counterexample.
    """
    check_interface(original, d)
    n_in = len(original.inputs)
    groups = d.config.groups

    if mode == "exhaustive":
        total_bits = n_in + groups
        if total_bits > EXHAUSTIVE_BIT_LIMIT:
            raise ValueError(
                "exhaustive sweep needs %d bits, limit is %d; use sampled "
                "mode" % (total_bits, EXHAUSTIVE_BIT_LIMIT))
        count = 1 << total_bits
        cols = exhaustive_columns(total_bits)
    elif mode == "sampled":
        if samples < 1:
            raise ValueError("need at least one sample")
        total_bits = n_in + groups
        count = samples
        stream = packed_bits(RngSpec(seed), samples * total_bits)
        cols = [(stream >> (p * samples)) & ((1 << samples) - 1)
                for p in range(total_bits)]
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")

    mask = (1 << count) - 1
    x_cols = cols[:n_in]
    r_cols = cols[n_in:]
    ref = original.evaluator.run(dict(zip(original.inputs, x_cols)),
                                 mask=mask)
    values = dict(zip(d.source_inputs, x_cols))
    values.update(zip(d.random_wires, r_cols))
    got = d.netlist.evaluator.run(values, mask=mask)

    diff = 0
    for o, z in zip(original.outputs, d.decoded_outputs):
        diff |= ref[o] ^ got[z]
    if diff == 0:
        return Verdict(count, mode)
    index = (diff & -diff).bit_length() - 1
    cx = Counterexample(
        index=index,
        x={w: (c >> index) & 1 for w, c in zip(original.inputs, x_cols)},
        r={w: (c >> index) & 1 for w, c in zip(d.random_wires, r_cols)},
        expected={o: (ref[o] >> index) & 1 for o in original.outputs},
        got={o: (got[z] >> index) & 1
             for o, z in zip(original.outputs, d.decoded_outputs)},
    )
    return Verdict(count, mode, cx)
