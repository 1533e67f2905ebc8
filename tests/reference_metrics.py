"""Reference metrics for the differential properties in test_trojan.py,
test_cost.py and test_recordize.py: the four-term loop of
``trojan._mi_counts``, the per-gate loop that built ``trojan.tap``'s
visible set, the generator forms of ``cost.depth`` and ``cost.area``, and
``PartitionedDesign``'s construction checks and role derivations as
``Design`` and ``partition_check``, copied verbatim from before they were
unrolled, mapped or read off one layout (tap's loop as a function of the
design and view, reading ``Design``'s zone; ``Design`` without the random
stream, with ``Netlist.drivers()`` written inline, and with the ``__tn_``
encoder check and the check that every ``__t_`` gate pads a source input,
which ``Layout.read`` gained later, written independently).
The name does not match ``test_*.py``, so pytest does not collect this
module.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from recordkit.cost import _COST, _gate_area
from recordkit.netlist import Gate, Netlist, NetlistError, UNTRUSTED
from recordkit.recordize import (DECODED_OUT_PREFIX, ENCODE_COMPLEMENT_PREFIX,
                                 ENCODE_PREFIX, ENCODED_OUT_PREFIX,
                                 MISCOMPARE_WIRE, RANDOM_PREFIX,
                                 _REPLICA_NAME, PartitionedDesign,
                                 RecordConfig, random_wire, replica_wire)


def mi_counts(c11: int, ca: int, cb: int, n: int) -> float:
    """Plug-in I(a;b) in bits from the ones in a&b, a and b over n cycles."""
    if n == 0:
        raise ValueError("empty streams")
    c10 = ca - c11
    c01 = cb - c11
    c00 = n - c11 - c10 - c01
    mi = 0.0
    for cij, ci, cj in ((c11, ca, cb), (c10, ca, n - cb),
                        (c01, n - ca, cb), (c00, n - ca, n - cb)):
        if cij:
            mi += (cij / n) * math.log2(cij * n / (ci * cj))
    return max(mi, 0.0)


def tap_visible(d: PartitionedDesign,
                replica: Optional[int] = None) -> Set[str]:
    visible = set()
    for g in Design(d.netlist).untrusted_gates():
        if replica is None or g.replica == replica:
            visible.add(g.out)
            visible.update(g.ins)
    return visible


def area(n: Netlist, zone: Optional[str] = None) -> float:
    """Summed gate weights, optionally restricted to one zone."""
    return sum(_gate_area(g) for g in n.gates
               if zone is None or g.zone == zone)


def depth(n: Netlist, outputs: Optional[Iterable[str]] = None) -> float:
    """Longest input-to-output path under the unit delays."""
    level: Dict[str, float] = {w: 0.0 for w in n.inputs}
    for g in n.order:
        base = max((level[w] for w in g.ins), default=0.0)
        level[g.out] = base + _COST[g.kind][2]
    outs = tuple(outputs) if outputs is not None else n.outputs
    return max((level[o] for o in outs), default=0.0)


@dataclass(frozen=True)
class Design:
    """A transformed netlist. The config and every
    wire role are read off the reserved names in the netlist, so no stored
    copy can disagree with it; construction checks those names and ends
    with the closure rule."""

    netlist: Netlist

    def __post_init__(self):
        for i, w in enumerate(self.random_wires, start=1):
            if w != random_wire(i):
                raise NetlistError("random inputs must be __r1..__rG in "
                                   "order, found %r" % w)
        if not self.random_wires:
            raise NetlistError("no __r inputs: not a transformed design")
        if not self.encoded_outputs or (len(self.encoded_outputs)
                                        != len(self.decoded_outputs)):
            raise NetlistError("outputs must pair __y_<o> with __z_<o>")
        if tuple(w[len(DECODED_OUT_PREFIX):]
                 for w in self.decoded_outputs) != self.source_outputs:
            raise NetlistError("encoded and decoded output names disagree")
        try:
            self.config.validate(self.netlist)
        except ValueError as e:  # e.g. a declared __r3 that pads no input
            raise NetlistError(str(e)) from None
        replicas = {g.replica for g in self.untrusted_gates()}
        if None in replicas:
            g = next(g for g in self.untrusted_gates() if g.replica is None)
            raise NetlistError("untrusted gate %r has no replica index"
                               % g.out, g.line)
        copies = self.copy_count
        if replicas != set(range(copies)):
            raise NetlistError("expected replica indices 0..%d, found %s"
                               % (copies - 1, sorted(replicas)))
        self._check_copies(copies)
        partition_check(self)

    def _check_copies(self, copies: int) -> None:
        """A gate is named replica_wire(k, ...) exactly when it is untrusted
        with replica k, and no copy reads a wire of another copy."""
        prefix = [replica_wire(k, "") for k in range(copies)]
        outs: List[Set[str]] = [set() for _ in range(copies)]
        reads: List[Set[str]] = [set() for _ in range(copies)]
        for g in self.netlist.gates:
            if g.zone != UNTRUSTED:
                if _REPLICA_NAME.match(g.out):
                    raise NetlistError("copy gate %r is not untrusted"
                                       % g.out, g.line)
            elif g.out.startswith(prefix[g.replica]):
                outs[g.replica].add(g.out)
                reads[g.replica].update(g.ins)
            else:
                raise NetlistError("untrusted gate %r has replica %d but is "
                                   "not named %s..." % (g.out, g.replica,
                                                        prefix[g.replica]),
                                   g.line)
        every = set().union(*outs)
        for k in range(copies):
            foreign = every - outs[k]
            if not foreign.isdisjoint(reads[k]):
                g, w = next((g, w) for g in self.netlist.gates
                            if g.out in outs[k] for w in g.ins
                            if w in foreign)
                raise NetlistError("copy %d gate %r reads copy %s wire %r"
                                   % (k, g.out,
                                      _REPLICA_NAME.match(w).group(1), w),
                                   g.line)

    @cached_property
    def config(self) -> RecordConfig:
        """Read off the encode gates: __t_<x> = x xor __r<g> puts x in g."""
        assignment: Dict[str, int] = {}
        by_out = {g.out: g for g in self.netlist.gates}
        group_of = {w: k for k, w in enumerate(self.random_wires, start=1)}
        for i in self.source_inputs:
            g = by_out.get(ENCODE_PREFIX + i)
            if g is None:
                continue
            groups = [group_of[w] for w in g.ins if w in group_of]
            if (g.kind != "XOR" or len(g.ins) != 2 or i not in g.ins
                    or not groups):
                raise NetlistError("unrecognized encode gate for input %r" % i)
            assignment[i] = groups[0]
        # every __t_<x> pads a source input x
        for g in self.netlist.gates:
            if (g.out.startswith(ENCODE_PREFIX)
                    and g.out[len(ENCODE_PREFIX):] not in self.source_inputs):
                raise NetlistError("unrecognized encode gate %r" % g.out,
                                   g.line)
        # every __tn_<x> is x xnor the pad of its __t_<x> twin
        for g in self.netlist.gates:
            if not g.out.startswith(ENCODE_COMPLEMENT_PREFIX):
                continue
            x = g.out[len(ENCODE_COMPLEMENT_PREFIX):]
            want = sorted([x, random_wire(assignment.get(x, 0))])
            if (g.kind, x in assignment, sorted(g.ins)) != ("XNOR", True,
                                                            want):
                raise NetlistError("unrecognized complemented encode gate "
                                   "%r" % g.out, g.line)
        return RecordConfig(tuple(assignment), len(self.random_wires),
                            assignment)

    @property
    def random_wires(self) -> Tuple[str, ...]:
        return tuple(w for w in self.netlist.inputs
                     if w.startswith(RANDOM_PREFIX))

    @property
    def source_inputs(self) -> Tuple[str, ...]:
        return tuple(w for w in self.netlist.inputs
                     if not w.startswith(RANDOM_PREFIX))

    @property
    def encoded_outputs(self) -> Tuple[str, ...]:
        return tuple(w for w in self.netlist.outputs
                     if w.startswith(ENCODED_OUT_PREFIX))

    @property
    def decoded_outputs(self) -> Tuple[str, ...]:
        return tuple(w for w in self.netlist.outputs
                     if w.startswith(DECODED_OUT_PREFIX))

    @property
    def source_outputs(self) -> Tuple[str, ...]:
        return tuple(w[len(ENCODED_OUT_PREFIX):]
                     for w in self.encoded_outputs)

    @property
    def replica_count(self) -> int:
        return 1 << self.config.groups

    @property
    def copy_count(self) -> int:
        """Every copy the netlist carries: the 2^G the mux tree selects
        among, and on an FT netlist (one with a __e output) their twins."""
        return self.replica_count << (MISCOMPARE_WIRE in self.netlist.outputs)

    def untrusted_gates(self) -> List[Gate]:
        return [g for g in self.netlist.gates if g.zone == UNTRUSTED]

    def replica_input_wires(self, k: int) -> Dict[str, str]:
        """Wire feeding each source input position of replica k."""
        return replica_input_map(self.config, self.source_inputs, k)

    def replica_output_wire(self, k: int, o: str) -> str:
        return self.replica_input_wires(k).get(o, replica_wire(k, o))


def replica_input_map(cfg: RecordConfig, inputs: Sequence[str],
                      k: int) -> Dict[str, str]:
    """Wire feeding each source input of copy k: the complemented encoding
    where bit g(i)-1 of k is set, the plain one otherwise; inputs outside
    the randomized subset pass through."""
    s = set(cfg.randomized_inputs)
    out = {}
    for i in inputs:
        if i in s:
            bit = (k >> (cfg.group_assignment[i] - 1)) & 1
            out[i] = (ENCODE_COMPLEMENT_PREFIX if bit else ENCODE_PREFIX) + i
        else:
            out[i] = i
    return out


def partition_check(d: Design) -> None:
    """Structural closure: no untrusted gate reads a random wire or a raw
    randomized input. Raises NetlistError naming every such read; the last
    step of PartitionedDesign construction."""
    randoms = set(d.random_wires)
    raw = set(d.config.randomized_inputs)
    violations: List[str] = []
    for g in d.untrusted_gates():
        for w in g.ins:
            if w in randoms:
                violations.append("%r reads random wire %r" % (g.out, w))
            elif w in raw:
                violations.append("%r reads raw randomized input %r"
                                  % (g.out, w))
    if violations:
        raise NetlistError("partition closure violated: "
                           + ", ".join(violations))
