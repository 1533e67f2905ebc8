"""Randomized-encoding transform and trusted/untrusted partitioning.

The transform takes a combinational netlist f and a configuration naming a
subset S of its inputs, G random-bit groups, and an input-to-group map. It
produces a partitioned design:

  encode (trusted)   for i in S: t_i = x_i xor r_g(i), and the complemented
                     encoding tn_i = x_i xnor r_g(i); inputs outside S pass
                     through untouched.
  replicate          2^G verbatim copies of f (untrusted), copy c reading
                     tn_i where bit g(i)-1 of c is set, t_i otherwise.
  select (trusted)   a balanced mux tree over the 2^G copies with r1 as the
                     outermost select, so the copy whose index equals the
                     current random vector is forwarded: m_o = f_o(x) for
                     every random value.
  re-encode (trusted)  y_o = m_o xor r1 leaves the boundary, and the decode
                     z_o = y_o xor r1 recovers plain f_o(x).

The __t_/__tn_ encodings a copy reads are one-time-padded, and the random
wires and the raw S inputs never cross into the untrusted zone, which
partition_check verifies structurally. Inside a copy the pad does not hold
for every wire: an xor of two inputs of the same group cancels it.
partition_check is the one closure rule: trojan.tap() refuses a design
exactly when its verdict, PartitionedDesign.closure, reports a violation.

The complemented encoding is emitted as a single xnor per randomized input
(an inverter folded into the encoder) so the whole harness adds exactly one
gate level in front of the copies.

This module owns every reserved ("__"-prefixed) wire name, including those
of the fault-tolerant variant. A design is its netlist and its random
stream: the config is read off the __t_ encode gates, and every wire role
(random inputs, source ports, encoded and decoded outputs, replica copies,
FT selectors and votes) is read off those names, never stored beside them.
Every design is checked against those names when it is constructed, and
its closure verdict is computed once per design; design_from_netlist
rejects a loaded design whose verdict fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .netlist import Gate, Netlist, NetlistError, UNTRUSTED, gate_lines
from .rng import RngSpec

RESERVED_PREFIX = "__"
RANDOM_PREFIX = "__r"              # __r<g>: random bit of group g, 1-based
ENCODE_PREFIX = "__t_"             # x xor r, read by copies with bit 0
ENCODE_COMPLEMENT_PREFIX = "__tn_"  # x xnor r, read by copies with bit 1
SELECT_PREFIX = "__m_"             # mux tree over the copies
ENCODED_OUT_PREFIX = "__y_"        # selected output xor r1, leaves the design
DECODED_OUT_PREFIX = "__z_"        # encoded output xor r1, plain f(x)
SPARE_INPUT_PREFIX = "__s_"        # FT: spare copy input selectors
COMPARE_PREFIX = "__cmp_"          # FT: spare vs selected output
MISCOMPARE_WIRE = "__e"            # FT: or-reduced miscompare flag
VOTE_PAIR_PREFIXES = ("__vab_", "__vac_", "__vbc_")  # FT: 2-of-3 terms
VOTE_PREFIX = "__v_"               # FT: per-output majority vote

def random_wire(g: int) -> str:
    return "%s%d" % (RANDOM_PREFIX, g)


def replica_wire(k: int, w: str) -> str:
    """Copy k's instance of the source gate output w."""
    return "__f%d_%s" % (k, w)


_REPLICA_NAME = re.compile(r"__f(\d+)_")  # replica_wire's names


def selected_wire(o: str, path: str = "") -> str:
    """Mux-tree node for output o at select-bit path ("" is the root)."""
    return SELECT_PREFIX + o + ("_b" + path if path else "")


def _reject_reserved(n: Netlist) -> None:
    for w in n.wires():
        if w.startswith(RESERVED_PREFIX):
            raise NetlistError("wire %r collides with the reserved '%s' "
                               "prefix" % (w, RESERVED_PREFIX))


@dataclass(frozen=True)
class RecordConfig:
    """Which inputs are randomized, how many random bits, and the grouping;
    frozen and read-only so that no caller can change a design's config."""

    randomized_inputs: Tuple[str, ...]
    groups: int = 1
    group_assignment: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(self.randomized_inputs)
        assignment = dict(self.group_assignment)
        if self.groups >= 1 and not assignment:
            assignment = {w: 1 for w in names}
        object.__setattr__(self, "randomized_inputs", names)
        object.__setattr__(self, "group_assignment",
                           MappingProxyType(assignment))

    def validate(self, n: Netlist) -> None:
        if not self.randomized_inputs:
            raise ValueError("randomized input subset is empty")
        if self.groups < 1:
            raise ValueError("need at least one random-bit group")
        inp = set(n.inputs)
        seen = set()
        for w in self.randomized_inputs:
            if w not in inp:
                raise ValueError("randomized input %r is not an input of %s"
                                 % (w, n.name))
            if w in seen:
                raise ValueError("randomized input %r listed twice" % w)
            seen.add(w)
        if set(self.group_assignment) != seen:
            raise ValueError("group assignment must cover exactly the "
                             "randomized inputs")
        used = set()
        for w, g in self.group_assignment.items():
            if not 1 <= g <= self.groups:
                raise ValueError("input %r assigned to group %d, valid range "
                                 "is 1..%d" % (w, g, self.groups))
            used.add(g)
        if used != set(range(1, self.groups + 1)):
            missing = sorted(set(range(1, self.groups + 1)) - used)
            raise ValueError("group %d has no inputs" % missing[0])

    @classmethod
    def checkerboard(cls, n: Netlist, groups: int = 1,
                     subset: Optional[Sequence[str]] = None) -> "RecordConfig":
        """Assign groups round-robin by input position (alternating for G=2)."""
        names = tuple(subset) if subset is not None else n.inputs
        pos = {w: i for i, w in enumerate(n.inputs)}
        for w in names:
            if w not in pos:
                raise ValueError("unknown input %r" % w)
        assignment = {w: (pos[w] % groups) + 1 for w in names}
        return cls(tuple(names), groups, assignment)

    def to_json(self) -> dict:
        return {"subset": list(self.randomized_inputs),
                "groups": self.groups,
                "assignment": dict(self.group_assignment)}

    @classmethod
    def from_json(cls, doc: Mapping) -> "RecordConfig":
        return cls(tuple(doc["subset"]), int(doc["groups"]),
                   {k: int(v) for k, v in doc["assignment"].items()})


@dataclass(frozen=True)
class PartitionedDesign:
    """A transformed netlist and its random stream. The config and every
    wire role are read off the reserved names in the netlist, so no stored
    copy can disagree with it; construction checks those names."""

    netlist: Netlist
    rng: RngSpec = field(default_factory=RngSpec)

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
        copies = self.replica_count
        if MISCOMPARE_WIRE in self.netlist.outputs:
            copies += 1  # an FT netlist also carries the spare copy 2^G
        if replicas != set(range(copies)):
            raise NetlistError("expected replica indices 0..%d, found %s"
                               % (copies - 1, sorted(replicas)))
        self._check_copies(copies)

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
        by_out = self.netlist.drivers()
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
        return RecordConfig(tuple(assignment), len(self.random_wires),
                            assignment)

    @cached_property
    def closure(self) -> "ClosureReport":
        """The closure verdict, computed once per design."""
        return partition_check(self)

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

    def untrusted_gates(self) -> List[Gate]:
        return [g for g in self.netlist.gates if g.zone == UNTRUSTED]

    def encode_wire(self, x: str) -> str:
        return ENCODE_PREFIX + x

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


def build_replica(n: Netlist, k: int, inputs: Mapping[str, str]
                  ) -> Tuple[List[Gate], Dict[str, str]]:
    """Untrusted copy k of n reading inputs[i] in place of source input i:
    the copy's gates in n's order and the wire carrying each output."""
    wire = dict(inputs)
    wire.update((g.out, replica_wire(k, g.out)) for g in n.gates)
    gates = [Gate(g.kind, wire[g.out], tuple(wire[w] for w in g.ins),
                  UNTRUSTED, k) for g in n.gates]
    return gates, {o: wire[o] for o in n.outputs}


def transform(n: Netlist, cfg: RecordConfig) -> PartitionedDesign:
    """Apply the randomized-encoding construction described above."""
    name, inputs, outputs, gates, _ = _record_parts(n, cfg)
    return PartitionedDesign(Netlist(name, inputs, outputs, tuple(gates)))


def _record_parts(n: Netlist, cfg: RecordConfig) -> Tuple[
        str, Tuple[str, ...], Tuple[str, ...], List[Gate],
        List[Dict[str, str]]]:
    """transform's netlist as unvalidated (name, inputs, outputs, gates),
    plus the wire carrying each output of each copy, so that a caller
    extending the gate list builds and checks one netlist."""
    cfg.validate(n)
    _reject_reserved(n)
    g_of = cfg.group_assignment
    s = set(cfg.randomized_inputs)
    big_g = cfg.groups
    r_wires = tuple(random_wire(g) for g in range(1, big_g + 1))
    r1 = r_wires[0]

    gates: List[Gate] = []
    for i in n.inputs:
        if i in s:
            r = random_wire(g_of[i])
            gates.append(Gate("XOR", ENCODE_PREFIX + i, (i, r)))
            gates.append(Gate("XNOR", ENCODE_COMPLEMENT_PREFIX + i, (i, r)))

    leaves: List[Dict[str, str]] = []
    for c in range(1 << big_g):
        copy, outs = build_replica(n, c, replica_input_map(cfg, n.inputs, c))
        gates.extend(copy)
        leaves.append(outs)

    def build_mux(o: str, indices: List[int], level: int, path: str) -> str:
        if len(indices) == 1:
            return leaves[indices[0]][o]
        lo = [c for c in indices if not (c >> level) & 1]
        hi = [c for c in indices if (c >> level) & 1]
        a0 = build_mux(o, lo, level + 1, path + "0")
        a1 = build_mux(o, hi, level + 1, path + "1")
        out = selected_wire(o, path)
        gates.append(Gate("MUX2", out, (random_wire(level + 1), a0, a1)))
        return out

    for o in n.outputs:
        m = build_mux(o, list(range(1 << big_g)), 0, "")
        y, z = ENCODED_OUT_PREFIX + o, DECODED_OUT_PREFIX + o
        gates.append(Gate("XOR", y, (m, r1)))
        gates.append(Gate("XOR", z, (y, r1)))

    return ("%s_record%d" % (n.name, big_g), n.inputs + r_wires,
            tuple(ENCODED_OUT_PREFIX + o for o in n.outputs)
            + tuple(DECODED_OUT_PREFIX + o for o in n.outputs),
            gates, leaves)


@dataclass(frozen=True)
class Violation:
    gate_out: str
    wire: str
    reason: str


@dataclass(frozen=True)
class ClosureReport:
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def partition_check(d: PartitionedDesign) -> ClosureReport:
    """Structural closure: no untrusted gate reads a random wire or a raw
    randomized input. Violations are report entries, not exceptions."""
    randoms = set(d.random_wires)
    raw = set(d.config.randomized_inputs)
    violations: List[Violation] = []
    for g in d.untrusted_gates():
        for w in g.ins:
            if w in randoms:
                violations.append(Violation(g.out, w, "random wire"))
            elif w in raw:
                violations.append(Violation(g.out, w,
                                            "raw randomized input"))
    return ClosureReport(tuple(violations))


def user_view(d: PartitionedDesign) -> Netlist:
    """The bona fide user's netlist: decoded outputs, zone tags dropped."""
    gates = tuple(Gate(g.kind, g.out, g.ins) for g in d.netlist.gates)
    return Netlist("%s_user" % d.netlist.name, d.netlist.inputs,
                   d.decoded_outputs, gates)


def rekey(d: PartitionedDesign, new_rng: RngSpec) -> PartitionedDesign:
    """Swap the harness random stream; no gate is touched."""
    return replace(d, rng=new_rng)


def untrusted_zone_text(d: PartitionedDesign) -> str:
    """Serialization of exactly the untrusted gates, in netlist order."""
    lines = [line for g in d.untrusted_gates() for line in gate_lines(g)]
    return "\n".join(lines) + "\n"


def design_from_netlist(n: Netlist, rng: Optional[RngSpec] = None
                        ) -> PartitionedDesign:
    """Rebuild a PartitionedDesign from a serialized transformed netlist.

    Construction checks the reserved names written by transform(): __rK
    inputs, __t_ encode gates (the config is read off them), __y_/__z_
    output pairs and replica attributes. A design whose closure verdict,
    computed once and kept, fails is rejected with the wires that break it.
    """
    d = PartitionedDesign(n, rng if rng is not None else RngSpec())
    if d.closure.violations:
        raise NetlistError("partition closure violated: %s" % ", ".join(
            "%r reads %s %r" % (v.gate_out, v.reason, v.wire)
            for v in d.closure.violations))
    return d
