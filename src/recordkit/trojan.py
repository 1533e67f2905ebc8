"""Data-leakage observer model, the three attacks, and leakage metrics.

The adversary modeled here is a passive implant with per-cycle visibility
of every wire the untrusted zone touches: the replica gates' outputs and
whatever feeds them (the encoded t/tn wires and any pass-through inputs).
It never sees the random wires or the raw randomized inputs; tap() checks
that on every call because it is the security property everything else
rests on, and takes its verdict from recordize.partition_check so the
closure rule has a single implementation. Isolation mode restricts the
view to a single replica, the situation where physically separated copies
cannot pool their observations.

leak_report scores three attacks on that view: pick-replica(k,o) guesses
output o as replica k's copy of it, input-echo(w) guesses an input as the
tapped wire w that encodes it, and gradient(a,b) guesses the xor of two
inputs as the xor of their tapped wires a and b.

Leakage is quantified with the plug-in mutual-information estimator over
the empirical 2x2 joint histogram (log base 2, 0*log0 = 0). For binary
streams its bias is about 1/(2n ln 2), negligible at the trace lengths
used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bits import Bits
from .recordize import PartitionedDesign, partition_check
from .rng import RngSpec
from .sim import SimTrace, Stimulus, simulate


class LeakError(Exception):
    pass


@dataclass
class LeakTrace:
    """Untrusted-zone projection of a trace, as seen by the implant."""

    cycles: int
    wires: Dict[str, int]

    def stream(self, wire: str) -> Bits:
        if wire not in self.wires:
            raise LeakError("wire %r is not visible in this tap" % wire)
        return Bits(self.wires[wire], self.cycles)

    def __contains__(self, wire: str) -> bool:
        return wire in self.wires


def tap(d: PartitionedDesign, t: SimTrace,
        replica: Optional[int] = None) -> LeakTrace:
    """Project a trace onto the implant-visible wires.

    replica=None gives the full untrusted view; an index restricts to that
    replica's gates and boundary wires. Raises LeakError whenever
    partition_check(d) reports a violation, whichever view is asked for.
    """
    if replica is not None and not 0 <= replica < d.replica_count:
        raise LeakError("no replica %d in a %d-copy design"
                        % (replica, d.replica_count))
    violations = partition_check(d).violations
    if violations:
        leaked = sorted({v.wire for v in violations})
        raise LeakError("partition closure violated: %s visible to the "
                        "untrusted zone" % leaked)
    visible = set()
    for g in d.untrusted_gates():
        if replica is None or g.replica == replica:
            visible.add(g.out)
            visible.update(g.ins)
    return LeakTrace(t.cycles, {w: t.wires[w] for w in sorted(visible)})


def mutual_information(a: Bits, b: Bits) -> float:
    """Plug-in estimate of I(a;b) in bits for two equal-length bit streams."""
    n = len(a)
    if len(b) != n:
        raise ValueError("streams differ in length: %d vs %d" % (n, len(b)))
    if n == 0:
        raise ValueError("empty streams")
    c11 = (a.value & b.value).bit_count()
    ca = a.count()
    cb = b.count()
    c10 = ca - c11
    c01 = cb - c11
    c00 = n - c11 - c10 - c01
    mi = 0.0
    for cij, ci, cj in ((c11, ca, cb), (c10, ca, n - cb),
                        (c01, n - ca, cb), (c00, n - ca, n - cb)):
        if cij:
            mi += (cij / n) * math.log2(cij * n / (ci * cj))
    return max(mi, 0.0)


@dataclass(frozen=True)
class PairMI:
    a: str
    b: str
    mi: float


@dataclass(frozen=True)
class StrategyScore:
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
    Per requested wire pair (a, b): MI of the xor of the two tapped streams
    against the xor of their underlying inputs. ``strategies`` holds the
    attacks' accuracies: pick-replica per visible replica output, then
    input-echo per tapped replica-0 input wire in wire order, then gradient
    per pair. ``replica`` restricts the view to one physically isolated
    copy. Uniform stimulus and at least ~10^4 cycles are what make these
    numbers meaningful.
    """
    lt = tap(d, t, replica=replica)
    x_streams = {i: t.stream(i) for i in d.source_inputs}
    out_streams = {o: t.stream(z)
                   for o, z in zip(d.source_outputs, d.decoded_outputs)}
    source_of = {w: i for i, w in d.replica_input_wires(0).items() if w in lt}

    wire_mi: Dict[str, Dict[str, Dict[str, float]]] = {}
    for w in lt.wires:
        ws = lt.stream(w)
        wire_mi[w] = {
            "input": {i: mutual_information(ws, xs)
                      for i, xs in x_streams.items()},
            "output": {o: mutual_information(ws, os_)
                       for o, os_ in out_streams.items()},
        }

    strategies: List[StrategyScore] = []
    for k in range(d.replica_count) if replica is None else (replica,):
        for o in d.source_outputs:
            w = d.replica_output_wire(k, o)
            if w in lt:
                strategies.append(StrategyScore(
                    "pick-replica(%d,%s)" % (k, o),
                    lt.stream(w).accuracy(out_streams[o])))
    for w, i in sorted(source_of.items()):
        strategies.append(StrategyScore("input-echo(%s)" % w,
                                        lt.stream(w).accuracy(x_streams[i])))

    pair_list: List[PairMI] = []
    for a, b in pairs:
        for w in (a, b):
            if w not in lt:
                raise LeakError("pair references untapped wire %r" % w)
            if w not in source_of:
                raise LeakError("pair wire %r has no associated source "
                                "input" % w)
        guess = lt.stream(a) ^ lt.stream(b)
        truth = x_streams[source_of[a]] ^ x_streams[source_of[b]]
        pair_list.append(PairMI(a, b, mutual_information(guess, truth)))
        strategies.append(StrategyScore("gradient(%s,%s)" % (a, b),
                                        guess.accuracy(truth)))
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
    cycles: int
    fired: Bits
    count: int
    rate: float
    analytic_rate: float


def trigger_experiment(d: PartitionedDesign, trig: TriggerSpec,
                       stim: Stimulus, rng: RngSpec) -> TriggerStats:
    """Measure how often the watched replica-0 bus equals the pattern.

    Alongside the measured rate, reports the analytic rate: the fraction of
    random vectors that map each applied input vector onto the pattern.
    With randomization in front of the copies, an input-pattern trigger
    only fires when the random draw cooperates.
    """
    bus = d.replica_input_wires(0)
    wire_to_input = {w: i for i, w in bus.items()}
    for w in trig.watched:
        if w not in wire_to_input:
            raise LeakError("watched wire %r is not on replica 0's input "
                            "bus" % w)

    t = simulate(d, stim, rng)
    mask = (1 << t.cycles) - 1
    ind = mask
    for w, want in zip(trig.watched, trig.pattern):
        sw = t.wires[w]
        ind &= sw if want else ~sw & mask
    fired = Bits(ind, t.cycles)

    # analytic: enumerate the 2^G random vectors against the applied inputs
    s = set(d.config.randomized_inputs)
    g_of = d.config.group_assignment
    groups = d.config.groups
    matches = 0
    for c in range(1 << groups):
        m = mask
        for w, want in zip(trig.watched, trig.pattern):
            i = wire_to_input[w]
            xs = t.wires[i]
            if i in s and (c >> (g_of[i] - 1)) & 1:
                xs = ~xs & mask
            m &= xs if want else ~xs & mask
        matches += m.bit_count()
    analytic = matches / ((1 << groups) * t.cycles)

    return TriggerStats(t.cycles, fired, fired.count(),
                        fired.count() / t.cycles, analytic)
