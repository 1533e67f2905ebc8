"""Fault-tolerant variant: twin copies, miscompare detection, voted replay.

transform_ft() extends a 1-random-bit design with twins: copies 2 and 3
are built like copies 0 and 1, from the same input map, so no copy reads
an unpadded input. A trusted mux on the random bit picks the selected
copy's twin, and a trusted comparator xors it against the selected output
and or-reduces into a single miscompare wire: duplication with comparison,
and with the 2-of-3 vote below triple modular redundancy (Lyons and
Vanderkulk, IBM J. 1962).

ft_simulate() runs the two-phase protocol around that datapath:

  phase 1   normal operation. Clean compare: commit the selected output
            and advance. Miscompare: latch e, buffer the suspect output,
            save the inputs and the random bit.
  phase 2   one replay step with the saved inputs and saved random bit
            (the transient has expired by then). Copy 0, copy 1 and the
            selected twin vote 2-of-3 per output; the vote replaces the
            buffered value, e clears, phase 1 resumes.

Every logical cycle c draws exactly one random bit, stream bit c: phase 1
draws it and a replay reuses the saved bit, which is sim.r_columns' layout
for one random bit. The FT netlist is combinational, so any step of logical
cycle c, a replay included, is lane c of one fault-free packed pass over
all cycles (simulate() of the FT design; simulate_netlist() of the source
gives the reference) unless a fault is forced at it. A force is a fault
only where it flips its wire: a force of the value the wire already has on
lane c is a clean step that evaluates nothing (the fault-activation
condition of parallel-pattern single-fault propagation, Waicukauski et al.,
1985). A fault forces lane c and re-evaluates only the forced wire's fanout
cone. Clean phase-1 spans, no-op forces included, are committed in bulk
from that pass, and the protocol steps one at a time only at faults,
miscompares and replays, so multi-fault plans, replay chains and the
replay-limit flag keep the per-step semantics. Calls on one design,
stimulus and seed share one fault-free pass. Every output row a trace
holds is read-only, so the traces of that pass share its committed and
reference rows; dict(row) is a mutable copy. A trace keeps each clean span
as one entry and builds the span's FTSteps on the first read of its
steps; len(steps) builds none, so a caller that reads only the committed
stream never pays for them.

Under the single-transient fault assumption the committed stream equals
the fault-free reference: the selected copy and its twin recompute
identical correct values on replay, so the vote is decided whatever the
unselected copy and its twin (which legitimately compute on complemented
inputs) produce. A fault that survives into replays is counted; hitting
the replay limit raises a permanent-fault suspicion flag in the trace.
Purging a permanently faulty copy is reported, never performed.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from functools import cached_property
from itertools import islice, repeat
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ._record import Record
from .bits import unpack
from .netlist import Gate, Netlist, open_text
from .recordize import (COMPARE_PREFIX, MISCOMPARE_WIRE, TWIN_SELECT_PREFIX,
                        VOTE_PAIR_PREFIXES, VOTE_PREFIX, PartitionedDesign,
                        RecordConfig, _record_parts, copy_ports,
                        random_wire, replica_wire, selected_wire)
from .rng import RngSpec
from .sim import Stimulus, simulate, simulate_netlist

REPLAY_LIMIT = 3


class FaultPlanError(Exception):
    pass


class FTDesign(Record, frozen=True):
    """The twin-augmented design and the source netlist it was built from.
    Its twin, comparator and vote wires are read off recordize's reserved
    names, like every other wire role of the design."""

    def __init__(self, design: PartitionedDesign, source: Netlist):
        self.__dict__.update(design=design, source=source)

    @cached_property
    def fault_sites(self) -> FrozenSet[str]:
        """The source's gate-driven wires, where a fault may be forced."""
        return frozenset(g.out for g in self.source.gates)

    @cached_property
    def _reads(self) -> Tuple[str, ...]:
        """A step's reads: the random bit, __e, selected outputs, votes."""
        outputs = self.source.outputs
        return ((self.design.random_wires[0], MISCOMPARE_WIRE)
                + tuple(selected_wire(o) for o in outputs)
                + tuple(VOTE_PREFIX + o for o in outputs))

    @cached_property
    def _memo(self) -> dict:
        """The last fault-free pass, keyed on (stimulus, rng)."""
        return {}


def transform_ft(n: Netlist, cfg: RecordConfig) -> FTDesign:
    """Build the twin-augmented design; only single-group configs apply."""
    if cfg.groups != 1:
        raise ValueError("the fault-tolerant construction uses exactly one "
                         "random bit (got %d groups)" % cfg.groups)
    name, inputs, outputs, gates = _record_parts(n, cfg, 4)
    leaves = [copy_ports(cfg, n.inputs, n.outputs, c)[1] for c in range(4)]
    r1 = random_wire(1)
    cmp_wires = tuple(COMPARE_PREFIX + o for o in n.outputs)
    for o, w in zip(n.outputs, cmp_wires):
        twin = TWIN_SELECT_PREFIX + o
        gates.append(Gate("MUX2", twin, (r1, leaves[2][o], leaves[3][o])))
        gates.append(Gate("XOR", w, (twin, selected_wire(o))))
    gates.append(Gate("OR" if len(cmp_wires) > 1 else "BUF", MISCOMPARE_WIRE,
                      cmp_wires))

    for o in n.outputs:
        a, b, c = leaves[0][o], leaves[1][o], TWIN_SELECT_PREFIX + o
        terms = tuple(p + o for p in VOTE_PAIR_PREFIXES)
        for w, ins in zip(terms, ((a, b), (a, c), (b, c))):
            gates.append(Gate("AND", w, ins))
        gates.append(Gate("OR", VOTE_PREFIX + o, terms))

    netlist = Netlist(name + "_ft", inputs, outputs + (MISCOMPARE_WIRE,)
                      + tuple(VOTE_PREFIX + o for o in n.outputs),
                      tuple(gates))
    return FTDesign(PartitionedDesign(netlist), n)


class FaultInjection(Record, frozen=True):
    """Force one replica-internal wire to a value for one protocol step."""

    def __init__(self, cycle: int, replica: int, wire: str, value: int):
        self.__dict__.update(cycle=cycle, replica=replica, wire=wire,
                             value=value)


class FaultPlan(Record):
    """The fault injections of one run, at most one per protocol step."""

    def __init__(self, injections: Tuple[FaultInjection, ...] = ()):
        self.injections = tuple(injections)

    def validate(self, ft: FTDesign) -> None:
        seen_cycles = set()
        for inj in self.injections:
            if inj.cycle < 0:
                raise FaultPlanError("negative injection cycle")
            if inj.cycle in seen_cycles:
                raise FaultPlanError("more than one fault at cycle %d "
                                     "(single-fault assumption)" % inj.cycle)
            seen_cycles.add(inj.cycle)
            if not 0 <= inj.replica < ft.design.copy_count:
                raise FaultPlanError("unknown replica %d" % inj.replica)
            if inj.wire not in ft.fault_sites:
                raise FaultPlanError(
                    "wire %r is not a gate-driven wire of %s; faults only "
                    "apply inside the untrusted copies"
                    % (inj.wire, ft.source.name))
            if inj.value not in (0, 1):
                raise FaultPlanError("forced value must be 0 or 1")

    def to_json(self) -> list:
        return [{"cycle": i.cycle, "replica": i.replica, "wire": i.wire,
                 "value": i.value} for i in self.injections]

    @classmethod
    def from_json(cls, doc: Sequence[dict]) -> "FaultPlan":
        types = {"cycle": int, "replica": int, "wire": str, "value": int}
        if not isinstance(doc, list):
            raise FaultPlanError("a fault plan is a list of injections, "
                                 "got %s" % type(doc).__name__)
        for i, e in enumerate(doc):
            if not isinstance(e, dict) or e.keys() != types.keys():
                raise FaultPlanError("injection %d is not an object with "
                                     "the keys %s" % (i, ", ".join(types)))
            for k, t in types.items():
                if type(e[k]) is not t:  # so a bool is not an int
                    raise FaultPlanError("injection %d: %s must be %s, got "
                                         "%r" % (i, k, t.__name__, e[k]))
        return cls(tuple(FaultInjection(**e) for e in doc))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open_text(path) as f:
            return cls.from_json(json.load(f))


class FTStep(Record):
    """One protocol step: phase, logical cycle, flags and outputs held."""

    __slots__ = ("step", "phase", "logical_cycle", "e", "r", "miscompare",
                 "committed", "buffered")

    def __init__(self, step: int, phase: int, logical_cycle: int, e: int,
                 r: int, miscompare: int, committed: Optional[Dict[str, int]],
                 buffered: Optional[Dict[str, int]]):
        self.step = step
        self.phase = phase
        self.logical_cycle = logical_cycle
        self.e = e
        self.r = r
        self.miscompare = miscompare
        self.committed = committed
        self.buffered = buffered


class _Steps(Sequence):
    """ft_simulate's steps, kept as its record: an FTStep per step taken on
    its own, and a (first step, first lane, end lane, rows) entry per clean
    phase-1 span. Its length builds nothing; the first other read builds
    the FTStep list once and keeps it, so a step read stays one object and
    a span step's committed is the same row as trace.committed[lc]."""

    def __init__(self, record: list, r_bits: bytes):
        self._record = record
        self._r_bits = r_bits

    @cached_property
    def _steps(self) -> List[FTStep]:
        steps: List[FTStep] = []
        for e in self._record:
            if isinstance(e, FTStep):
                steps.append(e)
                continue
            step, lc, end, rows = e
            steps += map(FTStep, range(step, step + end - lc), repeat(1),
                         range(lc, end), repeat(0), self._r_bits[lc:end],
                         repeat(0), rows, repeat(None))
        return steps

    def __len__(self) -> int:
        return sum(1 if isinstance(e, FTStep) else e[2] - e[1]
                   for e in self._record)

    def __getitem__(self, i):
        return self._steps[i]

    def __iter__(self):
        return iter(self._steps)

    def __eq__(self, other) -> bool:
        return self._steps == other

    def __repr__(self) -> str:
        return repr(self._steps)


class FTTrace(Record):
    """A run's steps, its committed and reference outputs, any suspicion."""

    def __init__(self, steps: Sequence[FTStep],
                 committed: List[Dict[str, int]],
                 reference: List[Dict[str, int]],
                 suspected_at_step: Optional[int] = None):
        self.steps = steps
        self.committed = committed
        self.reference = reference
        self.suspected_at_step = suspected_at_step

    @property
    def permanent_fault_suspected(self) -> bool:
        return self.suspected_at_step is not None

    @property
    def clean(self) -> bool:
        return self.committed == self.reference

    def to_csv(self, path) -> None:
        outputs = sorted(self.committed[0]) if self.committed else []
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["step", "phase", "logical_cycle", "e", "r",
                        "miscompare"] + ["commit_%s" % o for o in outputs])
            for s in self.steps:
                row = [s.step, s.phase, s.logical_cycle, s.e, s.r,
                       s.miscompare]
                row += [(s.committed or {}).get(o, "") for o in outputs]
                w.writerow(row)


class _Row(dict):
    """An {output: bit} row of a trace: read-only, so calls may share it."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a trace row is read-only; copy it with dict(row)")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


def _rows(outputs: Sequence[str], words: Sequence[int], count: int) -> tuple:
    """Each lane's {output: bit} row; equal rows share one _Row."""
    rows = list(zip(*(unpack(w, count) for w in words)))
    shared = {row: _Row(zip(outputs, row)) for row in set(rows)}
    return tuple(map(shared.__getitem__, rows))


def ft_simulate(ft: FTDesign, stim: Stimulus, rng: RngSpec,
                faults: Optional[FaultPlan] = None) -> FTTrace:
    """Run the two-phase detect/replay protocol over a stimulus. An
    injection at a step the run never reaches is not applied."""
    faults = faults or FaultPlan()
    faults.validate(ft)
    # step -> (forced wire, forced value)
    by_step = {inj.cycle: (replica_wire(inj.replica, inj.wire), inj.value)
               for inj in faults.injections}
    forced = sorted(by_step)
    outputs = ft.source.outputs
    count = stim.count
    votes = 2 + len(outputs)

    # a frozen stimulus is its own key; a uniform one is drawn once, on
    # its first miss, and both traces read the columns it keeps
    entry = ft._memo.get((stim, rng))
    if entry is None:
        ref = simulate_netlist(ft.source, stim).wires
        wires = simulate(ft.design, stim, rng).wires
        ft._memo.clear()
        ft._memo[stim, rng] = entry = (
            _rows(outputs, [ref[o] for o in outputs], count),
            _rows(outputs, [wires[w] for w in ft._reads[2:votes]], count),
            unpack(wires[ft._reads[0]], count),
            wires[MISCOMPARE_WIRE], wires)
    ref_rows, selected_rows, r_bits, mis_word, wires = entry

    def flips(f: int, lane: int) -> bool:
        """The force at step f changes its wire on lane: it is a fault."""
        w, value = by_step[f]
        return (wires[w] >> lane) & 1 != value

    record: list = []  # FTSteps and clean spans, see _Steps
    committed: List[Optional[Dict[str, int]]] = [None] * count

    phase = 1
    lc = 0
    step = 0
    replay_faults = 0
    suspected_at: Optional[int] = None

    while lc < count or phase == 2:
        if phase == 1:
            # commit the clean span up to the next lane where the fault-free
            # pass sets __e, or to the next force that flips its wire: step
            # f of the span sits on lane lc + (f - step)
            rest = mis_word >> lc
            end = lc + (rest & -rest).bit_length() - 1 if rest else count
            for f in islice(forced, bisect_left(forced, step), None):
                lane = lc + f - step
                if lane >= end:
                    break
                if flips(f, lane):
                    end = lane
                    break
            if end > lc:
                rows = selected_rows[lc:end]
                committed[lc:end] = rows
                record.append((step, lc, end, rows))
                step += end - lc
                lc = end
                if lc == count:
                    break
        if step in by_step and flips(step, lc):
            # force lane lc, re-evaluate the forced wire's cone only
            wire, value = by_step[step]
            v = ft.design.netlist.evaluator.rerun(
                wires, (1 << count) - 1, wire, lc, value)
        else:
            v = wires
        row = [(v[w] >> lc) & 1 for w in ft._reads]
        r, mis = row[:2]
        if phase == 1:
            m = _Row(zip(outputs, row[2:votes]))
            if mis:
                record.append(FTStep(step, 1, lc, 1, r, 1, None, m))
                phase = 2
            else:
                committed[lc] = m
                record.append(FTStep(step, 1, lc, 0, r, 0, m, None))
                lc += 1
        else:
            # replay of the saved logical cycle lc with its saved bit
            vote = _Row(zip(outputs, row[votes:]))
            committed[lc] = vote
            if mis:
                replay_faults += 1
                if replay_faults >= REPLAY_LIMIT and suspected_at is None:
                    suspected_at = step
            else:
                replay_faults = 0
            record.append(FTStep(step, 2, lc, 0, r, mis, vote, None))
            phase = 1
            lc += 1
        step += 1

    return FTTrace(_Steps(record, r_bits), committed, list(ref_rows),
                   suspected_at)
