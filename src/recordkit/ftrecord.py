"""Fault-tolerant variant: spare copy, miscompare detection, voted replay.

transform_ft() extends a 1-random-bit design with a third untrusted copy of
the function. Trusted per-input selectors (mux on the random bit) steer the
spare onto exactly the input vector of whichever main copy is currently
selected, so in fault-free operation the spare mirrors the selected copy
bit for bit. A trusted comparator xors spare against selected output and
or-reduces into a single miscompare wire.

ft_simulate() runs the two-phase protocol around that datapath:

  phase 1   normal operation. Clean compare: commit the selected output
            and advance. Miscompare: latch e, buffer the suspect output,
            save the inputs and the random bit.
  phase 2   one replay step with the saved inputs and saved random bit
            (the transient has expired by then). All three copies now act
            as triple-modular redundancy; the per-output majority vote
            replaces the buffered value, e clears, phase 1 resumes.

Every logical cycle c draws exactly one random bit, stream bit c: phase 1
draws it and a replay reuses the saved bit, which is sim.r_columns' layout
for one random bit. So ft_simulate() runs phase 1 word-parallel through
sim: simulate_netlist() of the source netlist gives the reference, and
simulate() of the FT design, one fault-free packed pass over all cycles,
gives the input lanes, the selected outputs and the miscompare of every
step that has no injection. Only a step with an injection, a packed
miscompare or a replay is evaluated narrowly, one lane with the fault
forced, so multi-fault plans, replay chains and the replay-limit flag keep
the per-step semantics.

Under the single-transient fault assumption the committed stream equals
the fault-free reference: the selected copy and the spare recompute
identical correct values on replay, so the vote is decided regardless of
what the unselected copy (which legitimately computes on complemented
inputs) produces. A fault that survives into replays is counted; hitting
the replay limit raises a permanent-fault suspicion flag in the trace.
Purging a permanently faulty copy is reported, never performed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .bits import unpack
from .netlist import Gate, Netlist, validate
from .recordize import (COMPARE_PREFIX, MISCOMPARE_WIRE, SPARE_INPUT_PREFIX,
                        VOTE_PAIR_PREFIXES, VOTE_PREFIX, PartitionedDesign,
                        RecordConfig, build_replica, replica_wire,
                        selected_wire, transform)
from .rng import RngSpec
from .sim import Stimulus, simulate, simulate_netlist

REPLAY_LIMIT = 3
SPARE = 2


class FaultPlanError(Exception):
    pass


@dataclass
class FTDesign:
    design: PartitionedDesign
    source: Netlist
    spare_inputs: Dict[str, str]
    spare_outputs: Dict[str, str]
    selected_outputs: Dict[str, str]
    voter_outputs: Dict[str, str]


def transform_ft(n: Netlist, cfg: RecordConfig) -> FTDesign:
    """Build the spare-augmented design; only single-group configs apply."""
    if cfg.groups != 1:
        raise ValueError("the fault-tolerant construction uses exactly one "
                         "random bit (got %d groups)" % cfg.groups)
    d = transform(n, cfg)
    gates = list(d.netlist.gates)

    r1 = d.random_wires[0]
    rep0 = d.replica_input_wires(0)
    rep1 = d.replica_input_wires(1)
    spare_inputs = {i: SPARE_INPUT_PREFIX + i for i in n.inputs}
    for i, w in spare_inputs.items():
        gates.append(Gate("MUX2", w, (r1, rep0[i], rep1[i])))
    spare_gates, spare_outputs = build_replica(n, SPARE, spare_inputs)
    gates.extend(spare_gates)
    selected = {o: selected_wire(o) for o in n.outputs}

    cmp_wires = tuple(COMPARE_PREFIX + o for o in n.outputs)
    for o, w in zip(n.outputs, cmp_wires):
        gates.append(Gate("XOR", w, (spare_outputs[o], selected[o])))
    if len(cmp_wires) == 1:
        gates.append(Gate("BUF", MISCOMPARE_WIRE, (cmp_wires[0],)))
    else:
        gates.append(Gate("OR", MISCOMPARE_WIRE, cmp_wires))

    voters: Dict[str, str] = {}
    for o in n.outputs:
        a = d.replica_output_wire(0, o)
        b = d.replica_output_wire(1, o)
        c = spare_outputs[o]
        terms = tuple(p + o for p in VOTE_PAIR_PREFIXES)
        for w, ins in zip(terms, ((a, b), (a, c), (b, c))):
            gates.append(Gate("AND", w, ins))
        voters[o] = VOTE_PREFIX + o
        gates.append(Gate("OR", voters[o], terms))

    netlist = Netlist(d.netlist.name + "_ft", d.netlist.inputs,
                      d.netlist.outputs + (MISCOMPARE_WIRE,)
                      + tuple(voters.values()),
                      tuple(gates))
    validate(netlist)
    return FTDesign(
        design=replace(d, netlist=netlist),
        source=n,
        spare_inputs=spare_inputs,
        spare_outputs=spare_outputs,
        selected_outputs=selected,
        voter_outputs=voters,
    )


@dataclass(frozen=True)
class FaultInjection:
    """Force one replica-internal wire to a value for one protocol step."""

    cycle: int
    replica: int
    wire: str
    value: int


@dataclass
class FaultPlan:
    injections: Tuple[FaultInjection, ...] = ()
    _by_step: Dict[int, FaultInjection] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        self.injections = tuple(self.injections)
        self._by_step = {}
        for inj in self.injections:
            self._by_step.setdefault(inj.cycle, inj)

    def validate(self, ft: FTDesign) -> None:
        seen_cycles = set()
        driven = {g.out for g in ft.source.gates}
        for inj in self.injections:
            if inj.cycle < 0:
                raise FaultPlanError("negative injection cycle")
            if inj.cycle in seen_cycles:
                raise FaultPlanError("more than one fault at cycle %d "
                                     "(single-fault assumption)" % inj.cycle)
            seen_cycles.add(inj.cycle)
            if not 0 <= inj.replica <= SPARE:
                raise FaultPlanError("unknown replica %d" % inj.replica)
            if inj.wire not in driven:
                raise FaultPlanError(
                    "wire %r is not a gate-driven wire of %s; faults only "
                    "apply inside the untrusted copies"
                    % (inj.wire, ft.source.name))
            if inj.value not in (0, 1):
                raise FaultPlanError("forced value must be 0 or 1")

    def at(self, step: int) -> Optional[FaultInjection]:
        return self._by_step.get(step)

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
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(json.load(f))


@dataclass
class FTStep:
    step: int
    phase: int
    logical_cycle: int
    e: int
    r: int
    miscompare: int
    committed: Optional[Dict[str, int]]
    buffered: Optional[Dict[str, int]]


@dataclass
class FTTrace:
    steps: List[FTStep]
    committed: List[Dict[str, int]]
    reference: List[Dict[str, int]]
    permanent_fault_suspected: bool = False
    suspected_at_step: Optional[int] = None

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


def ft_simulate(ft: FTDesign, stim: Stimulus, rng: RngSpec,
                faults: Optional[FaultPlan] = None) -> FTTrace:
    """Run the two-phase detect/replay protocol over a stimulus."""
    faults = faults or FaultPlan()
    faults.validate(ft)
    outputs = ft.source.outputs
    ref = simulate_netlist(ft.source, stim)
    count = ref.cycles
    ref_lanes = [unpack(ref.wires[o], count) for o in outputs]
    reference = [dict(zip(outputs, bits)) for bits in zip(*ref_lanes)]

    # logical cycle c draws stream bit c, as simulate's one random column
    # does: this fault-free pass gives every phase-1 step that has no
    # injection and no miscompare
    packed = simulate(ft.design, stim, rng)
    in_lanes = {w: unpack(packed.wires[w], count)
                for w in ft.design.netlist.inputs}
    r_lanes = in_lanes[ft.design.random_wires[0]]
    e_lanes = unpack(packed.wires[MISCOMPARE_WIRE], count)
    sel_lanes = [unpack(packed.wires[ft.selected_outputs[o]], count)
                 for o in outputs]

    def narrow(lc: int, inj: Optional[FaultInjection]) -> Dict[str, int]:
        values = {w: bits[lc] for w, bits in in_lanes.items()}
        force = None
        if inj is not None:
            force = {replica_wire(inj.replica, inj.wire): inj.value}
        return ft.design.netlist.evaluator.run(values, force=force)

    steps: List[FTStep] = []
    committed: List[Optional[Dict[str, int]]] = [None] * count

    phase = 1
    lc = 0
    step = 0
    replay_faults = 0
    suspected = False
    suspected_at: Optional[int] = None

    while lc < count or phase == 2:
        inj = faults.at(step)
        r = r_lanes[lc]
        if phase == 1:
            if inj is None and not e_lanes[lc]:
                m = {o: bits[lc] for o, bits in zip(outputs, sel_lanes)}
                mis = 0
            else:
                v = narrow(lc, inj)
                m = {o: v[ft.selected_outputs[o]] for o in outputs}
                mis = v[MISCOMPARE_WIRE]
            if mis:
                steps.append(FTStep(step, 1, lc, 1, r, 1, None, m))
                phase = 2
            else:
                committed[lc] = m
                steps.append(FTStep(step, 1, lc, 0, r, 0, m, None))
                lc += 1
        else:
            # replay of the saved logical cycle lc with its saved bit
            v = narrow(lc, inj)
            vote = {o: v[ft.voter_outputs[o]] for o in outputs}
            committed[lc] = vote
            mis = v[MISCOMPARE_WIRE]
            if mis:
                replay_faults += 1
                if replay_faults >= REPLAY_LIMIT and not suspected:
                    suspected = True
                    suspected_at = step
            else:
                replay_faults = 0
            steps.append(FTStep(step, 2, lc, 0, r, mis, vote, None))
            phase = 1
            lc += 1
        step += 1

    return FTTrace(steps, committed, reference, suspected, suspected_at)
