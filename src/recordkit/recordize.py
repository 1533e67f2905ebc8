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
partition_check verifies structurally on the cut: every wire an untrusted
gate reads and no untrusted gate drives. Inside a copy the pad does not
hold for every wire: an xor of two inputs of the same group cancels it.
partition_check is the one closure rule, and PartitionedDesign
construction runs it, so no caller can hold a design that breaks it.

The complemented encoding is emitted as a single xnor per randomized input
(an inverter folded into the encoder) so the whole harness adds exactly one
gate level in front of the copies.

This module owns every reserved ("__"-prefixed) wire name, including those
of the fault-tolerant variant. A design is its netlist: the random stream
is not part of what is fabricated, so every simulation takes it as an
argument. Every wire role (random inputs, source ports, the __t_/__tn_
encode gates the config is read off, the copies with their buses and output
wires, the cut and the trusted harness) is read off those names once, when
the design is constructed, into a frozen Layout derived from the netlist
and never set beside it; FT twins, comparators and votes are read off their
names. Every design, from transform(), transform_ft() or a loaded file, is
checked against those names and the closure rule as it is constructed, and
a failed check raises NetlistError.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ._record import Record
from .netlist import Gate, Netlist, NetlistError, UNTRUSTED, gate_text

RESERVED_PREFIX = "__"
RANDOM_PREFIX = "__r"              # __r<g>: random bit of group g, 1-based
ENCODE_PREFIX = "__t_"             # x xor r, read by copies with bit 0
ENCODE_COMPLEMENT_PREFIX = "__tn_"  # x xnor r, read by copies with bit 1
SELECT_PREFIX = "__m_"             # mux tree over the copies
ENCODED_OUT_PREFIX = "__y_"        # selected output xor r1, leaves the design
DECODED_OUT_PREFIX = "__z_"        # encoded output xor r1, plain f(x)
TWIN_SELECT_PREFIX = "__mt_"       # FT: mux over the twins, as __m_ is
COMPARE_PREFIX = "__cmp_"          # FT: selected twin vs selected output
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


class RecordConfig(Record, frozen=True):
    """Which inputs are randomized, how many random bits, and the grouping;
    frozen and read-only so that no caller can change a design's config."""

    def __init__(self, randomized_inputs: Tuple[str, ...], groups: int = 1,
                 group_assignment: Mapping[str, int] = MappingProxyType({})):
        self.__dict__.update(
            randomized_inputs=tuple(randomized_inputs), groups=groups,
            group_assignment=MappingProxyType(dict(group_assignment)))

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
        """Assign groups round-robin by input position (alternating for G=2).
        The result is validated, so a config transform would reject is
        never returned."""
        if groups < 1:
            raise ValueError("need at least one random-bit group")
        names = tuple(subset) if subset is not None else n.inputs
        pos = {w: i for i, w in enumerate(n.inputs)}
        for w in names:
            if w not in pos:
                raise ValueError("unknown input %r" % w)
        cfg = cls(tuple(names), groups,
                  {w: (pos[w] % groups) + 1 for w in names})
        cfg.validate(n)
        return cfg

    def to_json(self) -> dict:
        return {"subset": list(self.randomized_inputs),
                "groups": self.groups,
                "assignment": dict(self.group_assignment)}


class Layout(Record, frozen=True):
    """Every wire role of a design, read off its netlist in one pass over
    the gates. Copy k's gates in netlist order, its bus (the wire feeding
    each source input), the wire carrying each source output, and the wires
    it reads and drives sit at index k of copies, buses, copy_outputs, reads
    and drives. The cut is every wire that an untrusted gate reads and no
    untrusted gate drives; the harness is every trusted gate."""

    def __init__(self, random_wires: Tuple[str, ...],
                 source_inputs: Tuple[str, ...],
                 encoded_outputs: Tuple[str, ...],
                 decoded_outputs: Tuple[str, ...],
                 source_outputs: Tuple[str, ...], config: RecordConfig,
                 untrusted: Tuple[Gate, ...],  # every copy's, netlist order
                 copies: Tuple[Tuple[Gate, ...], ...],
                 buses: Tuple[Mapping[str, str], ...],
                 copy_outputs: Tuple[Mapping[str, str], ...],
                 reads: Tuple[FrozenSet[str], ...],
                 drives: Tuple[FrozenSet[str], ...], cut: FrozenSet[str],
                 harness: Tuple[Gate, ...]):
        self.__dict__.update(
            random_wires=random_wires, source_inputs=source_inputs,
            encoded_outputs=encoded_outputs, decoded_outputs=decoded_outputs,
            source_outputs=source_outputs, config=config,
            untrusted=untrusted, copies=copies, buses=buses,
            copy_outputs=copy_outputs, reads=reads, drives=drives, cut=cut,
            harness=harness)

    @staticmethod
    def is_design(n: Netlist) -> bool:
        """n has an __r input, an untrusted gate or a replica index."""
        return any(w.startswith(RANDOM_PREFIX) for w in n.inputs) or any(
            g.zone == UNTRUSTED or g.replica is not None for g in n.gates)

    @classmethod
    def read(cls, n: Netlist) -> "Layout":
        """n's layout; raises NetlistError on the first rule n breaks."""
        randoms = tuple(w for w in n.inputs if w.startswith(RANDOM_PREFIX))
        sources = tuple(w for w in n.inputs
                        if not w.startswith(RANDOM_PREFIX))
        encoded = tuple(w for w in n.outputs
                        if w.startswith(ENCODED_OUT_PREFIX))
        decoded = tuple(w for w in n.outputs
                        if w.startswith(DECODED_OUT_PREFIX))
        outputs = tuple(w[len(ENCODED_OUT_PREFIX):] for w in encoded)
        for i, w in enumerate(randoms, start=1):
            if w != random_wire(i):
                raise NetlistError("random inputs must be __r1..__rG in "
                                   "order, found %r" % w)
        if not randoms:
            raise NetlistError("no __r inputs: not a transformed design")
        if not encoded or len(encoded) != len(decoded):
            raise NetlistError("outputs must pair __y_<o> with __z_<o>")
        if tuple(w[len(DECODED_OUT_PREFIX):] for w in decoded) != outputs:
            raise NetlistError("encoded and decoded output names disagree")

        zone: List[Gate] = []
        harness: List[Gate] = []
        encoders: Dict[str, Gate] = {}
        complements: Dict[str, Gate] = {}
        for g in n.gates:
            (zone if g.zone == UNTRUSTED else harness).append(g)
            if g.out.startswith(ENCODE_PREFIX):
                encoders[g.out[len(ENCODE_PREFIX):]] = g
            elif g.out.startswith(ENCODE_COMPLEMENT_PREFIX):
                complements[g.out[len(ENCODE_COMPLEMENT_PREFIX):]] = g

        # __t_<x> = x xor __r<g> puts x in group g
        group_of = {w: k for k, w in enumerate(randoms, start=1)}
        assignment: Dict[str, int] = {}
        for i in filter(encoders.__contains__, sources):
            g = encoders[i]
            groups = [group_of[w] for w in g.ins if w in group_of]
            if (g.kind != "XOR" or len(g.ins) != 2 or i not in g.ins
                    or not groups):
                raise NetlistError("unrecognized encode gate for input %r" % i)
            assignment[i] = groups[0]
        for x, g in encoders.items():
            if x not in assignment:  # __t_<x> for an x that is no input
                raise NetlistError("unrecognized encode gate %r" % g.out,
                                   g.line)
        # __tn_<x> = x xnor the __r<g> of its __t_<x> twin
        for i, g in complements.items():
            if (g.kind != "XNOR" or i not in assignment or sorted(g.ins)
                    != sorted((i, random_wire(assignment[i])))):
                raise NetlistError("unrecognized complemented encode gate %r"
                                   % g.out, g.line)
        config = RecordConfig(tuple(assignment), len(randoms), assignment)
        try:
            config.validate(n)
        except ValueError as e:  # e.g. a declared __r3 that pads no input
            raise NetlistError(str(e)) from None

        replicas = set(map(attrgetter("replica"), zone))
        if None in replicas:
            g = next(g for g in zone if g.replica is None)
            raise NetlistError("untrusted gate %r has no replica index"
                               % g.out, g.line)
        # the 2^G copies the mux tree selects among, and on an FT netlist
        # (one with a __e output) their twins
        count = 1 << config.groups << (MISCOMPARE_WIRE in n.outputs)
        if replicas != set(range(count)):
            raise NetlistError("expected replica indices 0..%d, found %s"
                               % (count - 1, sorted(replicas)))
        copies: List[List[Gate]] = [[] for _ in range(count)]
        for g in zone:
            copies[g.replica].append(g)

        # a gate is named replica_wire(k, ...) exactly when it is untrusted
        # with replica k; raise on the first gate in netlist order that is not
        prefix = [replica_wire(k, "") for k in range(count)]
        for g in n.gates:
            if g.zone == UNTRUSTED:
                if not g.out.startswith(prefix[g.replica]):
                    raise NetlistError(
                        "untrusted gate %r has replica %d but is not named "
                        "%s..." % (g.out, g.replica, prefix[g.replica]),
                        g.line)
            elif _REPLICA_NAME.match(g.out):
                raise NetlistError("copy gate %r is not untrusted" % g.out,
                                   g.line)

        # no copy reads a wire of another copy
        drives = tuple(frozenset(g.out for g in c) for c in copies)
        reads = tuple(frozenset().union(*[g.ins for g in c]) for c in copies)
        every = frozenset().union(*drives)
        external = [r - d for r, d in zip(reads, drives)]
        for k, foreign in enumerate(e & every for e in external):
            if foreign:
                g, w = next((g, w) for g in copies[k] for w in g.ins
                            if w in foreign)
                raise NetlistError("copy %d gate %r reads copy %s wire %r"
                                   % (k, g.out,
                                      _REPLICA_NAME.match(w).group(1), w),
                                   g.line)

        ports = [copy_ports(config, sources, outputs, k) for k in range(count)]
        return cls(randoms, sources, encoded, decoded, outputs, config,
                   tuple(zone), tuple(map(tuple, copies)),
                   tuple(MappingProxyType(bus) for bus, _ in ports),
                   tuple(MappingProxyType(outs) for _, outs in ports),
                   reads, drives, frozenset().union(*external),
                   tuple(harness))


class PartitionedDesign(Record, frozen=True):
    """A transformed netlist, and nothing beside it. Construction reads its
    Layout and checks closure; the role attributes are views of layout, and
    copy k's bus and output wires are layout.buses[k] and copy_outputs[k]."""

    def __init__(self, netlist: Netlist):
        self.__dict__["netlist"] = netlist
        self.layout  # reading it runs every reserved-name check, in order
        partition_check(self)

    @cached_property
    def layout(self) -> Layout:
        return Layout.read(self.netlist)

    config = property(attrgetter("layout.config"))
    random_wires = property(attrgetter("layout.random_wires"))
    source_inputs = property(attrgetter("layout.source_inputs"))
    encoded_outputs = property(attrgetter("layout.encoded_outputs"))
    decoded_outputs = property(attrgetter("layout.decoded_outputs"))
    source_outputs = property(attrgetter("layout.source_outputs"))

    @property
    def replica_count(self) -> int:
        return 1 << self.config.groups

    @property
    def copy_count(self) -> int:
        """Every copy the netlist carries: the 2^G the mux tree selects
        among, and on an FT netlist their twins."""
        return len(self.layout.copies)

    def encode_wire(self, x: str) -> str:
        return ENCODE_PREFIX + x


def copy_ports(cfg: RecordConfig, inputs: Sequence[str],
               outputs: Sequence[str], k: int
               ) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Copy k's bus, the wire feeding each source input (the complemented
    encoding where bit g(i)-1 of k is set, else the plain one, and inputs
    outside the randomized subset pass through), and the wire carrying each
    source output: copy k's instance of it, or an input's bus wire."""
    s = set(cfg.randomized_inputs)
    bus = {}
    for i in inputs:
        if i in s:
            bit = (k >> (cfg.group_assignment[i] - 1)) & 1
            bus[i] = (ENCODE_COMPLEMENT_PREFIX if bit else ENCODE_PREFIX) + i
        else:
            bus[i] = i
    return bus, {o: bus.get(o, replica_wire(k, o)) for o in outputs}


def build_replica(n: Netlist, k: int, inputs: Mapping[str, str]
                  ) -> List[Gate]:
    """Untrusted copy k of n reading inputs[i] in place of source input i,
    its gates in n's order."""
    wire = dict(inputs)
    outs = [g.out for g in n.gates]
    wire.update(zip(outs, map(replica_wire(k, "").__add__, outs)))
    return [Gate(g.kind, wire[g.out], tuple(map(wire.__getitem__, g.ins)),
                 UNTRUSTED, k) for g in n.gates]


def transform(n: Netlist, cfg: RecordConfig) -> PartitionedDesign:
    """Apply the randomized-encoding construction described above."""
    name, inputs, outputs, gates = _record_parts(n, cfg)
    return PartitionedDesign(Netlist(name, inputs, outputs, tuple(gates)))


def _record_parts(n: Netlist, cfg: RecordConfig,
                  copies: Optional[int] = None) -> Tuple[
        str, Tuple[str, ...], Tuple[str, ...], List[Gate]]:
    """transform's netlist as unvalidated (name, inputs, outputs, gates), so
    that a caller extending the gate list builds and checks one netlist. Of
    the copies (2^G by default), copy c reads what copy c mod 2^G reads."""
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
    for c in range(1 << big_g if copies is None else copies):
        bus, outs = copy_ports(cfg, n.inputs, n.outputs, c)
        gates.extend(build_replica(n, c, bus))
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
            + tuple(DECODED_OUT_PREFIX + o for o in n.outputs), gates)


def partition_check(d: PartitionedDesign) -> None:
    """Structural closure: no untrusted gate reads a random wire or a raw
    randomized input. Both are inputs, so such a read is on the cut. Raises
    NetlistError naming every such read; the last step of
    PartitionedDesign construction."""
    layout = d.layout
    randoms = set(layout.random_wires)
    raw = set(layout.config.randomized_inputs)
    if layout.cut.isdisjoint(randoms | raw):
        return
    violations: List[str] = []
    for g in layout.untrusted:
        for w in g.ins:
            if w in randoms:
                violations.append("%r reads random wire %r" % (g.out, w))
            elif w in raw:
                violations.append("%r reads raw randomized input %r"
                                  % (g.out, w))
    raise NetlistError("partition closure violated: " + ", ".join(violations))


def user_view(d: PartitionedDesign) -> Netlist:
    """The bona fide user's netlist: decoded outputs, zone tags dropped."""
    gates = tuple(Gate(g.kind, g.out, g.ins) for g in d.netlist.gates)
    return Netlist("%s_user" % d.netlist.name, d.netlist.inputs,
                   d.decoded_outputs, gates)


def untrusted_zone_text(d: PartitionedDesign) -> str:
    """Serialization of exactly the untrusted gates, in netlist order."""
    return "\n".join(map(gate_text, d.layout.untrusted)) + "\n"


def design_from_netlist(n: Netlist) -> PartitionedDesign:
    """Rebuild a PartitionedDesign from a serialized transformed netlist;
    the random stream is the simulation's argument, not the design's.
    Construction reads its Layout, checking the reserved names transform()
    writes, then the closure rule, and raises NetlistError on the first
    rule n breaks."""
    return PartitionedDesign(n)
