"""Data-leakage observer model, the three attacks, and leakage metrics.

The adversary modeled here is a passive implant with per-cycle visibility
of every wire the untrusted zone touches: the replica gates' outputs and
whatever feeds them (the encoded t/tn wires and any pass-through inputs).
It never sees the random wires or the raw randomized inputs: that is the
security property everything else rests on, and recordize.partition_check,
its single implementation, runs when a PartitionedDesign is constructed,
so tap() is never handed a design that breaks it. Isolation mode restricts
the view to a single replica, the situation where physically separated
copies cannot pool their observations.

leak_report scores three attacks on that view: pick-replica(k,o) guesses
output o as replica k's copy of it, input-echo(w) guesses an input as the
tapped wire w that encodes it, and gradient(a,b) guesses the xor of two
inputs as the xor of their tapped wires a and b.

Every stream is a packed int, bit c holding cycle c, whose length is the
trace's cycle count n; mutual_information takes n with its two words.
Leakage is quantified with the plug-in mutual-information estimator over
the empirical 2x2 joint histogram (log base 2, 0*log0 = 0), whose bias for
binary streams, about 1/(2n ln 2), is negligible here. Every figure of a
report is a count of ones on one counting basis: an MI takes the ones of
a, b and a & b, an accuracy is 1 - ones(guess ^ truth)/n, and a pair's
guess and truth are the xors of two tapped and two source-input words.
leak_report counts each word's ones once and does one joint count per
(distinct tapped word object, target); wires that carry one stream get
equal, separate rows. A word object is found by identity, never hashed:
wires of structurally equal gates share one int object and so one row.
The basis is the trace's n-bit words or, once n >= _CYCLES_PER_VECTOR *
2^k for a netlist of k inputs (random wires included), one evaluation
over the 2^k input vectors with lane p weighted by h[p], the number of
cycles whose input vector is p. That is exact because the netlist is a
DAG: wire w in cycle c is f_w(vector_c), so the ones of f_w & g are
sum_p h[p] f_w(p) g(p), a count is linear over lanes, and both bases give
byte-identical reports of a trace of the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, repeat
from math import log2
from operator import lshift
from typing import Dict, List, Optional, Sequence, Tuple

from .recordize import PartitionedDesign
from .rng import RngSpec
from .sim import SimTrace, Stimulus, exhaustive_columns, simulate


class LeakError(Exception):
    pass


@dataclass
class LeakTrace:
    """Untrusted-zone projection of a trace, as seen by the implant."""

    cycles: int
    wires: Dict[str, int]

    def __contains__(self, wire: str) -> bool:
        return wire in self.wires


def tap(d: PartitionedDesign, t: SimTrace,
        replica: Optional[int] = None) -> LeakTrace:
    """Project a trace onto the implant-visible wires.

    replica=None gives the full untrusted view, the design layout's cut and
    every wire a copy drives; an index restricts to the wires that copy
    reads and drives. d passed the closure rule when it was constructed, so
    no view holds a random wire or a raw randomized input.
    """
    if replica is not None and not 0 <= replica < d.copy_count:
        raise LeakError("no replica %d in a %d-copy design"
                        % (replica, d.copy_count))
    layout = d.layout
    visible = (layout.cut.union(*layout.drives) if replica is None
               else layout.reads[replica] | layout.drives[replica])
    return LeakTrace(t.cycles, {w: t.wires[w] for w in sorted(visible)})


def _mi_counts(c11: int, ca: int, cb: int, n: int) -> float:
    """Plug-in I(a;b) in bits from the ones in a&b, a and b over n cycles."""
    if n == 0:
        raise ValueError("empty streams")
    c10 = ca - c11
    c01 = cb - c11
    c00 = n - c11 - c10 - c01
    mi = 0.0
    # the four cells unrolled, in this order, with these float expressions
    if c11:
        mi += (c11 / n) * log2(c11 * n / (ca * cb))
    if c10:
        mi += (c10 / n) * log2(c10 * n / (ca * (n - cb)))
    if c01:
        mi += (c01 / n) * log2(c01 * n / ((n - ca) * cb))
    if c00:
        mi += (c00 / n) * log2(c00 * n / ((n - ca) * (n - cb)))
    return mi if mi > 0.0 else 0.0


# measured cycles per input vector from which the vector basis is faster
_CYCLES_PER_VECTOR = 64


def _counting_basis(d: PartitionedDesign, t: SimTrace):
    """(words, shifts, planes): wires a and b are both 1 in the sum over i of
    ones(words[a] & words[b] & planes[i]) << shifts[i] trace cycles, a sum
    taken with C-level maps. Trace basis: one plane, every cycle. Vector
    basis (module docstring): plane i holds bit shifts[i] of every h[p]."""
    inputs = d.netlist.inputs
    k = len(inputs)
    if t.cycles < _CYCLES_PER_VECTOR << k:
        return t.wires, (0,), ((1 << t.cycles) - 1,)
    columns = [t.wires[i] for i in inputs]
    planes = [0] * t.cycles.bit_length()  # plane b: bit b of every h[p]

    def split(j: int, cycles: int, p: int) -> None:
        # depth first: O(k) classes of cycles alive at once, never all 2^k
        if j == k:
            h = cycles.bit_count()
            for b in range(h.bit_length()):
                planes[b] |= (h >> b & 1) << p
        elif cycles:
            one = cycles & columns[j]
            split(j + 1, cycles ^ one, p)
            split(j + 1, one, p | 1 << j)

    split(0, (1 << t.cycles) - 1, 0)
    words = d.netlist.evaluator.run(dict(zip(inputs, exhaustive_columns(k))),
                                    mask=(1 << (1 << k)) - 1)
    return (words, *zip(*[(b, plane) for b, plane in enumerate(planes)
                          if plane]))


def mutual_information(a: int, b: int, n: int) -> float:
    """Plug-in estimate of I(a;b) in bits for two packed n-bit streams."""
    if n < 1:
        raise ValueError("empty streams")
    for w in (a, b):
        if w < 0 or w >> n:
            raise ValueError("stream word does not fit in %d bits" % n)
    return _mi_counts((a & b).bit_count(), a.bit_count(), b.bit_count(), n)


@dataclass(frozen=True)
class PairMI:
    """MI in bits between two tapped wires' xor and their sources' xor."""

    a: str
    b: str
    mi: float


@dataclass(frozen=True)
class StrategyScore:
    """A named guessing strategy and the share of cycles it got right."""

    name: str
    accuracy: float


@dataclass
class LeakReport:
    """Per-wire and per-pair mutual information plus strategy accuracies."""

    wire_mi: Dict[str, Dict[str, Dict[str, float]]]
    pairs: List[PairMI]
    strategies: List[StrategyScore]

    def to_json(self) -> dict:
        return {
            "wires": {w: {"mi_vs": kinds} for w, kinds in self.wire_mi.items()},
            "pairs": [{"a": p.a, "b": p.b, "mi": p.mi} for p in self.pairs],
            "strategies": [{"name": s.name, "accuracy": s.accuracy}
                           for s in self.strategies],
        }


def leak_report(d: PartitionedDesign, t: SimTrace,
                pairs: Sequence[Tuple[str, str]] = (),
                replica: Optional[int] = None) -> LeakReport:
    """Measure what the implant's view reveals.

    Per tapped wire: MI against every source input and every true output.
    Per requested wire pair (a, b), each on the input bus of any tapped
    copy: MI of the xor of the two tapped streams against the xor of their
    underlying inputs. ``strategies`` holds the
    attacks' accuracies: pick-replica per visible replica output, then
    input-echo per tapped input wire of the viewed replica (replica 0 when
    unrestricted) in wire order, then gradient per pair. ``replica``
    restricts the view to one physically isolated copy. Uniform stimulus
    and at least ~10^4 cycles are what make these numbers meaningful.
    ``t`` must be a trace of ``d``, as made by ``simulate(d, ...)``: every
    figure is counted on one of the two bases in the module docstring.
    """
    lt, n = tap(d, t, replica=replica), t.cycles
    decoded = dict(zip(d.source_outputs, d.decoded_outputs))
    copies = range(d.copy_count) if replica is None else (replica,)
    buses = d.layout.buses
    source_of = {w: i for i, w in buses[replica or 0].items() if w in lt}
    pair_source = {w: i for k in copies
                   for i, w in buses[k].items() if w in lt}

    words, shifts, planes = _counting_basis(d, t)

    def count(v: int) -> int:
        return sum(map(lshift, map(int.bit_count, map(v.__and__, planes)),
                       shifts))

    inputs = d.source_inputs
    sources = [words[w] for w in (*inputs, *decoded.values())]
    ones = list(map(count, sources))
    # the planes, then each target on them: a word's ones, then joint ones
    masked = [*planes, *[s & p for s in sources for p in planes]]
    wire_mi: Dict[str, Dict[str, Dict[str, float]]] = {}
    # id(word) -> (input row, output row); words holds every word alive
    rows_at: Dict[int, Tuple[Dict[str, float], Dict[str, float]]] = {}
    for w in lt.wires:
        v = words[w]
        rows = rows_at.get(id(v))
        if rows is None:
            terms = map(lshift, map(int.bit_count, map(v.__and__, masked)),
                        cycle(shifts))
            cw, *joint = map(sum, zip(*[terms] * len(planes)))
            mis = map(_mi_counts, joint, repeat(cw), ones, repeat(n))
            # zip stops at the names, so the output row takes the rest
            rows = rows_at[id(v)] = (dict(zip(inputs, mis)),
                                     dict(zip(decoded, mis)))
        wire_mi[w] = {"input": rows[0].copy(), "output": rows[1].copy()}

    def accuracy(guess: int, truth: int) -> float:
        return 1.0 - count(guess ^ truth) / n

    strategies: List[StrategyScore] = []
    for k in copies:
        for o, z in decoded.items():
            w = d.layout.copy_outputs[k][o]
            if w in lt:
                strategies.append(StrategyScore(
                    "pick-replica(%d,%s)" % (k, o),
                    accuracy(words[w], words[z])))
    for w, i in sorted(source_of.items()):
        strategies.append(StrategyScore("input-echo(%s)" % w,
                                        accuracy(words[w], words[i])))

    pair_list: List[PairMI] = []
    for a, b in pairs:
        for w in (a, b):
            if w not in lt:
                raise LeakError("pair references untapped wire %r" % w)
            if w not in pair_source:
                raise LeakError("pair wire %r has no associated source "
                                "input" % w)
        guess = words[a] ^ words[b]
        truth = words[pair_source[a]] ^ words[pair_source[b]]
        pair_list.append(PairMI(a, b, _mi_counts(
            count(guess & truth), count(guess), count(truth), n)))
        strategies.append(StrategyScore("gradient(%s,%s)" % (a, b),
                                        accuracy(guess, truth)))
    return LeakReport(wire_mi, pair_list, strategies)


@dataclass(frozen=True)
class TriggerSpec:
    """Single-cycle pattern match over replica 0's input bus."""

    watched: Tuple[str, ...]
    pattern: Tuple[int, ...]

    def __post_init__(self):
        if len(self.watched) != len(self.pattern):
            raise ValueError("pattern width %d does not match %d watched "
                             "wires" % (len(self.pattern), len(self.watched)))
        for b in self.pattern:
            if b not in (0, 1):
                raise ValueError("pattern bits must be 0 or 1")


@dataclass
class TriggerStats:
    """A trigger's cycle count, its firing cycles and its analytic rate."""

    cycles: int
    fired: int  # bit c set when the pattern matched in cycle c
    analytic_rate: float

    @property
    def count(self) -> int:
        return self.fired.bit_count()

    @property
    def rate(self) -> float:
        return self.count / self.cycles


def trigger_experiment(d: PartitionedDesign, trig: TriggerSpec,
                       stim: Stimulus, rng: RngSpec) -> TriggerStats:
    """Measure how often the watched replica-0 bus equals the pattern.

    Alongside the measured rate, reports the analytic rate: the fraction of
    random vectors that map each applied input vector onto the pattern.
    With randomization in front of the copies, an input-pattern trigger
    only fires when the random draw cooperates.
    """
    buses = d.layout.buses[:d.replica_count]
    wire_to_input = {w: i for i, w in buses[0].items()}
    for w in trig.watched:
        if w not in wire_to_input:
            raise LeakError("watched wire %r is not on replica 0's input "
                            "bus" % w)

    t = simulate(d, stim, rng)
    mask = (1 << t.cycles) - 1
    fired = mask
    for w, want in zip(trig.watched, trig.pattern):
        sw = t.wires[w]
        fired &= sw if want else ~sw & mask

    # analytic: enumerate the 2^G random vectors against the applied inputs;
    # under vector c, input i reaches replica 0 complemented where copy c's
    # bus differs from replica 0's
    matches = 0
    for bus in buses:
        m = mask
        for w, want in zip(trig.watched, trig.pattern):
            i = wire_to_input[w]
            xs = t.wires[i]
            if bus[i] != w:
                xs = ~xs & mask
            m &= xs if want else ~xs & mask
        matches += m.bit_count()
    analytic = matches / (len(buses) * t.cycles)

    return TriggerStats(t.cycles, fired, analytic)
