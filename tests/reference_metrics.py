"""Reference metrics for the differential properties in test_trojan.py and
test_cost.py: the four-term loop of ``trojan._mi_counts``, the per-gate
loop that built ``trojan.tap``'s visible set, and the generator forms of
``cost.depth`` and ``cost.area``, copied verbatim from before they were
unrolled and mapped (tap's loop as a function of the design and view).
The name does not match ``test_*.py``, so pytest does not collect this
module.
"""

import math
from typing import Dict, Iterable, Optional, Set

from recordkit.cost import _COST, _gate_area
from recordkit.netlist import Netlist
from recordkit.recordize import PartitionedDesign


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
    for g in d.untrusted_gates():
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
