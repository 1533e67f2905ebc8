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
no code runs once per bit. A uniform Stimulus is drawn once per width
and kept (Stimulus.kept), so the original and the design of one analysis,
and every later run on the same Stimulus, read the same column objects; a
trace stores those words as they are (Evaluator.run copies no word that
already fits its mask).

Exhaustive equivalence checking drives every wire with the classic binary
counter columns (input p toggles with period 2^(p+1)). The sweep runs in
chunks of 2^CHUNK_BITS lanes: the low inputs take ``exhaustive_columns``
and each higher input is all ones or all zeros by the chunk number, so
memory stays bounded at any width. The first counterexample in counter
order is reported, the same one a single pass would find.
``exhaustive_columns`` is shared with trojan's per-vector leak counts.
"""

from __future__ import annotations

import csv
from itertools import repeat
from typing import Dict, Optional, Tuple

from ._record import Record
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
CHUNK_BITS = 16  # an exhaustive sweep evaluates 2^CHUNK_BITS lanes at a time


class SimulationError(Exception):
    pass


class Stimulus(Record, frozen=True):
    """Per-cycle primary-input vectors: explicit rows or a uniform spec.

    Uniform stimuli draw bits cycle-major (all of cycle 0's inputs before
    cycle 1's), first declared input first, from their own seed. bound
    draws them afresh on each call; kept, which the simulations read, draws
    them once per width and keeps them. What is kept takes no part in
    equality, hashing or repr, so a drawn and an undrawn Stimulus of one
    spec are the same key.
    """

    def __init__(self, count: int, columns: Optional[Tuple[int, ...]] = None,
                 seed: int = 0):
        if count < 1:
            raise ValueError("need at least one cycle")
        self.__dict__.update(count=count, columns=columns, seed=seed,
                             _drawn={})

    @classmethod
    def uniform(cls, count: int, seed: int = 0) -> "Stimulus":
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

    def kept(self, width: int) -> Tuple[int, Tuple[int, ...]]:
        """bound(width), drawn by the first call at each width and kept:
        every simulation of this Stimulus reads the same column objects."""
        if width not in self._drawn:
            self._drawn[width] = self.bound(width)[1]
        return self.count, self._drawn[width]


class SimTrace(Record):
    """Full per-cycle wire valuation, packed one integer per wire."""

    def __init__(self, netlist: Netlist, cycles: int, wires: Dict[str, int]):
        self.netlist = netlist
        self.cycles = cycles
        self.wires = wires

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
    j in column p, so lane j holds the input vector whose bit p is input p.
    Column p is 2^p zeros then 2^p ones, doubled until it spans the lanes."""
    lanes = 1 << k
    cols = []
    for b in (1 << p for p in range(k)):
        c, w = ((1 << b) - 1) << b, 2 * b
        while w < lanes:
            c |= c << w
            w <<= 1
        cols.append(c)
    return tuple(cols)


def simulate(d: PartitionedDesign, stim: Stimulus, rng: RngSpec) -> SimTrace:
    """Drive a partitioned design: stimulus on the source inputs, fresh
    bits of the caller's stream on the random inputs, full valuation
    recorded."""
    count, cols = stim.kept(len(d.source_inputs))
    values = dict(zip(d.source_inputs, cols))
    rcols = r_columns(rng, count, d.config.groups)
    values.update(zip(d.random_wires, rcols))
    wires = d.netlist.evaluator.run(values, mask=(1 << count) - 1)
    return SimTrace(d.netlist, count, wires)


def simulate_netlist(n: Netlist, stim: Stimulus) -> SimTrace:
    """Plain-netlist counterpart of simulate (no random inputs)."""
    count, cols = stim.kept(len(n.inputs))
    values = dict(zip(n.inputs, cols))
    wires = n.evaluator.run(values, mask=(1 << count) - 1)
    return SimTrace(n, count, wires)


class Counterexample(Record, frozen=True):
    """A failing case: its index, inputs, random bits and both outputs."""

    def __init__(self, index: int, x: Dict[str, int], r: Dict[str, int],
                 expected: Dict[str, int], got: Dict[str, int]):
        self.__dict__.update(index=index, x=x, r=r, expected=expected,
                             got=got)


class Verdict(Record, frozen=True):
    """How many cases a check ran, in which mode, and the first failure."""

    def __init__(self, cases: int, mode: str,
                 counterexample: Optional[Counterexample] = None):
        self.__dict__.update(cases=cases, mode=mode,
                             counterexample=counterexample)

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


def _first_failure(original: Netlist, d: PartitionedDesign, cols,
                   mask: int, offset: int) -> Optional[Counterexample]:
    """One pass over the lanes of ``mask``, input p on column p: the
    lowest failing lane as a Counterexample at offset + lane, or None."""
    n_in = len(original.inputs)
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
        return None
    lane = (diff & -diff).bit_length() - 1
    return Counterexample(
        index=offset + lane,
        x={w: (c >> lane) & 1 for w, c in zip(original.inputs, x_cols)},
        r={w: (c >> lane) & 1 for w, c in zip(d.random_wires, r_cols)},
        expected={o: (ref[o] >> lane) & 1 for o in original.outputs},
        got={o: (got[z] >> lane) & 1
             for o, z in zip(original.outputs, d.decoded_outputs)},
    )


def verify_equivalence(original: Netlist, d: PartitionedDesign,
                       mode: str = "exhaustive", samples: int = 10000,
                       seed: int = 0) -> Verdict:
    """Check that the decoded outputs equal the original outputs.

    Exhaustive mode sweeps all 2^(inputs+G) combinations (error above
    EXHAUSTIVE_BIT_LIMIT total bits) in chunks of 2^CHUNK_BITS lanes;
    sampled mode draws uniform combinations. Either way the first failing
    combination in enumeration order is the reported counterexample.
    """
    check_interface(original, d)
    total_bits = len(original.inputs) + d.config.groups

    if mode == "exhaustive":
        if total_bits > EXHAUSTIVE_BIT_LIMIT:
            raise ValueError(
                "exhaustive sweep needs %d bits, limit is %d; use sampled "
                "mode" % (total_bits, EXHAUSTIVE_BIT_LIMIT))
        low = min(total_bits, CHUNK_BITS)
        ones = (1 << (1 << low)) - 1
        base = exhaustive_columns(low)
        for j in range(1 << (total_bits - low)):
            # chunk j holds lanes j << low and up: input p >= low is bit
            # p - low of j on every lane
            high = tuple(ones * (j >> p & 1)
                         for p in range(total_bits - low))
            cx = _first_failure(original, d, base + high, ones, j << low)
            if cx is not None:
                break
        return Verdict(1 << total_bits, mode, cx)
    if mode == "sampled":
        if samples < 1:
            raise ValueError("need at least one sample")
        mask = (1 << samples) - 1
        stream = packed_bits(RngSpec(seed), samples * total_bits)
        cols = [(stream >> (p * samples)) & mask for p in range(total_bits)]
        return Verdict(samples, mode,
                       _first_failure(original, d, cols, mask, 0))
    raise ValueError("mode must be 'exhaustive' or 'sampled'")
