"""Data-leakage observer model, attacker strategies, and leakage metrics.

The adversary modeled here is a passive implant with per-cycle visibility
of every wire the untrusted zone touches: the replica gates' outputs and
whatever feeds them (the encoded t/tn wires and any pass-through inputs).
It never sees the random wires or the raw randomized inputs; tap() checks
that on every call because it is the security property everything else
rests on, and takes its verdict from recordize.partition_check so the
closure rule has a single implementation. Isolation mode restricts the
view to a single replica, the situation where physically separated copies
cannot pool their observations.

Leakage is quantified with the plug-in mutual-information estimator over
the empirical 2x2 joint histogram (log base 2, 0*log0 = 0). For binary
streams its bias is about 1/(2n ln 2), negligible at the trace lengths
used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    replica: Optional[int] = None
    source_of: Dict[str, str] = field(default_factory=dict)
    replica_outputs: Dict[Tuple[int, str], str] = field(default_factory=dict)

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

    source_of = {w: i for i, w in d.replica_input_wires(0).items()
                 if w in visible}
    replica_outputs = {}
    for k in range(d.replica_count) if replica is None else (replica,):
        for o in d.source_outputs:
            w = d.replica_output_wire(k, o)
            if w in visible:
                replica_outputs[(k, o)] = w

    return LeakTrace(
        cycles=t.cycles,
        wires={w: t.wires[w] for w in sorted(visible)},
        replica=replica,
        source_of=source_of,
        replica_outputs=replica_outputs,
    )


def mutual_information(a, b) -> float:
    """Plug-in estimate of I(a;b) in bits for two equal-length bit streams."""
    a = Bits.coerce(a)
    b = Bits.coerce(b)
    if len(a) != len(b):
        raise ValueError("streams differ in length: %d vs %d"
                         % (len(a), len(b)))
    n = len(a)
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
    against the xor of their underlying inputs. ``replica`` restricts the
    view to one physically isolated copy. Uniform stimulus and at least
    ~10^4 cycles are what make these numbers meaningful.
    """
    lt = tap(d, t, replica=replica)
    x_streams = {i: t.stream(i) for i in d.source_inputs}
    out_streams = {o: t.stream(z)
                   for o, z in zip(d.source_outputs, d.decoded_outputs)}

    wire_mi: Dict[str, Dict[str, Dict[str, float]]] = {}
    for w in lt.wires:
        ws = lt.stream(w)
        wire_mi[w] = {
            "input": {i: mutual_information(ws, xs)
                      for i, xs in x_streams.items()},
            "output": {o: mutual_information(ws, os_)
                       for o, os_ in out_streams.items()},
        }

    pair_list: List[PairMI] = []
    gradients: List[StrategyScore] = []
    for a, b in pairs:
        for w in (a, b):
            if w not in lt:
                raise LeakError("pair references untapped wire %r" % w)
            if w not in lt.source_of:
                raise LeakError("pair wire %r has no associated source "
                                "input" % w)
        (guess,) = reconstruct(lt, Gradient(((a, b),))).values()
        truth = x_streams[lt.source_of[a]] ^ x_streams[lt.source_of[b]]
        pair_list.append(PairMI(a, b, mutual_information(guess, truth)))
        gradients.append(StrategyScore("gradient(%s,%s)" % (a, b),
                                       guess.accuracy(truth)))

    strategies: List[StrategyScore] = []
    for k, o in lt.replica_outputs:
        guess = reconstruct(lt, PickReplica(k, o))[o]
        strategies.append(StrategyScore("pick-replica(%d,%s)" % (k, o),
                                        guess.accuracy(out_streams[o])))
    for w, i in sorted(lt.source_of.items()):
        guess = reconstruct(lt, InputEcho(w))[i]
        strategies.append(StrategyScore("input-echo(%s)" % w,
                                        guess.accuracy(x_streams[i])))
    return LeakReport(wire_mi, pair_list, strategies + gradients)


@dataclass(frozen=True)
class PickReplica:
    """Guess the true output as replica k's copy of it."""
    replica: int
    output: str


@dataclass(frozen=True)
class InputEcho:
    """Guess a source input as the tapped wire that encodes it."""
    wire: str


@dataclass(frozen=True)
class Gradient:
    """Guess input differences as differences of tapped wires."""
    pairs: Tuple[Tuple[str, str], ...]


Strategy = Union[PickReplica, InputEcho, Gradient]


def reconstruct(l: LeakTrace, strategy: Strategy) -> Dict[str, Bits]:
    """Run an attacker strategy over a tap; keys name what is guessed."""
    if isinstance(strategy, PickReplica):
        key = (strategy.replica, strategy.output)
        if key not in l.replica_outputs:
            raise LeakError("replica %d output %r not visible" % key)
        return {strategy.output: l.stream(l.replica_outputs[key])}
    if isinstance(strategy, InputEcho):
        if strategy.wire not in l:
            raise LeakError("wire %r not visible" % strategy.wire)
        target = l.source_of.get(strategy.wire, strategy.wire)
        return {target: l.stream(strategy.wire)}
    if isinstance(strategy, Gradient):
        out = {}
        for a, b in strategy.pairs:
            out["%s^%s" % (a, b)] = l.stream(a) ^ l.stream(b)
        return out
    raise TypeError("unknown strategy %r" % (strategy,))


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
