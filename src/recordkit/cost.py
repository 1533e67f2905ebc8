"""Synthesis-free cost proxies: transistor-count area, unit-delay depth,
toggle-count switching activity.

These are structural estimates, not synthesis results, from one fixed
per-kind table (``_COST``) with no settable coefficients. Every report
carries reference ratios (area 2.4x, dynamic power 3.4x, leakage power
2.19x, delay increase at most 11%) as an informational comparison. They
are quoted as the results of an ASIC evaluation of this scheme, but their
source cannot be checked in this repository: ``PAPER.md`` holds only the
paper's abstract. Only replication-dominated quantities (area, zone area,
depth delta) are stable enough for the proxy to bracket, so dynamic power
and delay percentage are reported unscored.
The leakage proxy is the transistor count, so a report's ``leakage``
figures are its ``area`` figures by construction.

Depth of a transformed design is measured to its encoded outputs: that is
the boundary the fabricated part exposes, the decode xor lives with the
consumer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ._record import Record
from .netlist import Gate, Netlist
from .recordize import PartitionedDesign
from .sim import SimTrace, check_interface

REFERENCE_RATIOS = {
    "area": 2.4,
    "dyn_power": 3.4,
    "leak_power": 2.19,
    "delay_increase_max": 0.11,
}

PROXY_NOTE = ("structural proxies (transistor-count area, unit delays, "
              "toggle activity); reference ratios come from a synthesized "
              "evaluation and are informational, not scored")

# kind -> (area per input, area offset, delay); area is in transistor
# equivalents, delay in unit gate delays
_COST = {
    "NOT": (0.0, 2.0, 1.0),
    "BUF": (0.0, 4.0, 0.0),
    "AND": (2.0, 2.0, 1.0),
    "OR": (2.0, 2.0, 1.0),
    "NAND": (2.0, 0.0, 1.0),
    "NOR": (2.0, 0.0, 1.0),
    "XOR": (8.0, -8.0, 1.0),
    "XNOR": (8.0, -8.0, 1.0),
    "MUX2": (0.0, 8.0, 1.0),
    "CONST0": (0.0, 0.0, 0.0),
    "CONST1": (0.0, 0.0, 0.0),
}


def _gate_area(g: Gate) -> float:
    per_input, offset, _ = _COST[g.kind]
    return per_input * len(g.ins) + offset


def area(n: Netlist, zone: Optional[str] = None) -> float:
    """Summed gate weights, optionally restricted to one zone."""
    return sum(map(_gate_area, n.gates if zone is None
                   else [g for g in n.gates if g.zone == zone]))


def depth(n: Netlist, outputs: Optional[Iterable[str]] = None) -> float:
    """Longest input-to-output path under the unit delays."""
    level: Dict[str, float] = dict.fromkeys(n.inputs, 0.0)
    at = level.__getitem__
    for g in n.order:
        base = max(map(at, g.ins)) if g.ins else 0.0
        level[g.out] = base + _COST[g.kind][2]
    return max(map(at, n.outputs if outputs is None else outputs),
               default=0.0)


class ActivityReport(Record):
    """Toggles between consecutive cycles, in all and weighted by area."""

    def __init__(self, total_toggles: int, weighted_activity: float):
        self.total_toggles = total_toggles
        self.weighted_activity = weighted_activity


def switching(t: SimTrace) -> ActivityReport:
    """Transitions between consecutive cycles, weighted by driver area.

    Only gate-driven wires carry weight; the toggles of each distinct word
    object, found by identity, are counted once. Every wire word must fit
    in t.cycles bits, as simulate guarantees: a bit above them is counted
    as toggles, unmasked.
    """
    if t.cycles < 2:
        raise ValueError("switching needs at least 2 cycles")
    # bit c of s ^ (s >> 1) is a toggle between cycles c and c + 1, except
    # bit cycles - 1: that is s's own last bit, taken off again
    last = t.cycles - 1
    total = 0
    weighted = 0.0
    # id(stream) -> toggle count; t holds every stream alive for the loop
    toggles_at: Dict[int, int] = {}
    # the areas as one list up front: made lazily, between toggle counts,
    # they raised a 2x10^5-cycle aes-sbox run's peak RSS by about 1 MB
    gates = t.netlist.gates
    for g, a in zip(gates, list(map(_gate_area, gates))):
        s = t.wires[g.out]
        count = toggles_at.get(id(s))
        if count is None:
            count = toggles_at[id(s)] = ((s ^ (s >> 1)).bit_count()
                                         - (s >> last))
        total += count
        weighted += count * a
    return ActivityReport(total, weighted)


def _ratio(num: float, den: float) -> Optional[float]:  # None: undefined
    return num / den if den else None


class CostReport(Record):
    """Area, depth and switching activity of a source and its design."""

    def __init__(self, area_original: float, area_transformed: float,
                 area_untrusted: float, depth_original: float,
                 depth_transformed: float, activity_original: float,
                 activity_transformed: float):
        self.area_original = area_original
        self.area_transformed = area_transformed
        self.area_untrusted = area_untrusted
        self.depth_original = depth_original
        self.depth_transformed = depth_transformed
        self.activity_original = activity_original
        self.activity_transformed = activity_transformed

    @property
    def area_ratio(self) -> Optional[float]:
        return _ratio(self.area_transformed, self.area_original)

    @property
    def untrusted_area_ratio(self) -> Optional[float]:
        return _ratio(self.area_untrusted, self.area_original)

    @property
    def depth_delta(self) -> float:
        return self.depth_transformed - self.depth_original

    @property
    def activity_ratio(self) -> Optional[float]:
        return _ratio(self.activity_transformed, self.activity_original)

    def to_json(self) -> dict:
        return {
            "proxy": {
                "area": self.area_transformed,
                "depth": self.depth_transformed,
                "activity": self.activity_transformed,
                "leakage": self.area_transformed,
            },
            "original": {
                "area": self.area_original,
                "depth": self.depth_original,
                "activity": self.activity_original,
                "leakage": self.area_original,
            },
            "ratios": {
                "area": self.area_ratio,
                "untrusted_area": self.untrusted_area_ratio,
                "depth_delta": self.depth_delta,
                "activity": self.activity_ratio,
                "leakage": self.area_ratio,
            },
            "paper_reference": dict(REFERENCE_RATIOS),
            "note": PROXY_NOTE,
        }


def cost_report(orig: Netlist, d: PartitionedDesign,
                traces: Tuple[SimTrace, SimTrace]) -> CostReport:
    """All three proxies for an original/transformed pair.

    ``traces`` is (original trace, transformed trace); both must have been
    produced under the same stimulus. Areas and toggle counts are whole
    numbers, so every summing order gives the same float.
    """
    check_interface(orig, d)
    t_orig, t_des = traces
    if t_orig.cycles != t_des.cycles:
        raise ValueError("traces differ in length: %d vs %d"
                         % (t_orig.cycles, t_des.cycles))
    for i in orig.inputs:
        if t_orig.wires.get(i) != t_des.wires.get(i):
            raise ValueError("traces were not produced under identical "
                             "stimulus (input %r differs)" % i)
    untrusted = sum(map(_gate_area, d.layout.untrusted))
    return CostReport(
        area_original=area(orig),
        area_transformed=untrusted + sum(map(_gate_area, d.layout.harness)),
        area_untrusted=untrusted,
        depth_original=depth(orig),
        depth_transformed=depth(d.netlist, outputs=d.encoded_outputs),
        activity_original=switching(t_orig).weighted_activity,
        activity_transformed=switching(t_des).weighted_activity,
    )
