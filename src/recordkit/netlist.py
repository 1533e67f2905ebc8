"""Combinational gate-level netlist IR, text format, validation, evaluation.

A netlist is a DAG of gates over named single-driver wires. The text format
is line-oriented, one statement per line, ``#`` starts a comment:

    module <name>
    input <w> [<w> ...]
    output <w> [<w> ...]
    const0 <w> | const1 <w>
    not <out> <in> | buf <out> <in>
    and|or|nand|nor|xor|xnor <out> <in1> <in2> [...]
    mux <out> <sel> <a0> <a1>
    attr <out-wire> zone <trusted|untrusted>
    attr <out-wire> replica <integer>
    end

Multi-input and/or/nand/nor take two or more operands; a k-input xor is
parity, xnor its complement. ``mux`` selects a0 when sel is 0, a1 when sel
is 1. A gate without a zone attribute is trusted. Wire names match
``[A-Za-z_][A-Za-z0-9_.]*``; the ``__`` prefix is reserved for wires created
by the encoding transform and is rejected there on user inputs.

Evaluation is word-parallel: every wire value is a Python integer whose bit
j carries the wire's value in sample j, so one pass over the gate list
evaluates arbitrarily many input combinations at once. Structurally equal
gates are evaluated once and share one word; fault injection (``rerun``)
still acts on single physical gates.

One table, ``_KINDS``, holds each gate kind's keyword, arity range, base op
and complemented flag: nand, nor, xnor, not and const1 evaluate as and, or,
xor, buf and const0 followed by ``x ^= mask``. ``Netlist.evaluator`` is the
netlist's one cached, topologically sorted plan; only this module builds an
``Evaluator``.

``parse_netlist`` reads ``text.splitlines()`` in one pass, gate statements
tested first, and builds the gates at the end, as an attr line may come
before its gate. An error's line number counts every line end that
``str.splitlines`` knows: ``\\f``, ``\\x1c``, ``\\u2028``, ``\\r\\n`` once.

Every ``Netlist``, parsed or built in Python, is validated when it is
constructed; ``Netlist.order`` keeps the one ordering pass that validation
runs, which is also where a read of an undriven wire is reported. That order
is the file order when it is a dependency order, as in every netlist this
package emits; otherwise it is the gates that read only earlier wires, in
file order, followed by Kahn's order over the late gates.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

WIRE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_NAMES_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_.]*\n)*\Z")

TRUSTED = "trusted"
UNTRUSTED = "untrusted"

# kind -> (keyword, min arity, max arity or None, base op, complemented).
# A complemented kind evaluates as its base op followed by x ^= mask.
_KINDS = {
    "BUF": ("buf", 1, 1, "BUF", False),
    "NOT": ("not", 1, 1, "BUF", True),
    "AND": ("and", 2, None, "AND", False),
    "NAND": ("nand", 2, None, "AND", True),
    "OR": ("or", 2, None, "OR", False),
    "NOR": ("nor", 2, None, "OR", True),
    "XOR": ("xor", 2, None, "XOR", False),
    "XNOR": ("xnor", 2, None, "XOR", True),
    "MUX2": ("mux", 3, 3, "MUX2", False),
    "CONST0": ("const0", 0, 0, "CONST0", False),
    "CONST1": ("const1", 0, 0, "CONST0", True),
}
_KIND_OF_KEYWORD = {spec[0]: kind for kind, spec in _KINDS.items()}
_COMMUTATIVE = frozenset({"AND", "OR", "XOR"})


class NetlistError(Exception):
    """Syntax or structural violation, with a source line when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = "line %d" % line
            if column is not None:
                loc += ", column %d" % column
            loc += ": "
        super().__init__(loc + message)


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """One gate, and the source line it came from, which is not compared."""

    kind: str
    out: str
    ins: Tuple[str, ...]
    zone: str = TRUSTED
    replica: Optional[int] = None
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def __init__(self, kind: str, out: str, ins: Tuple[str, ...],
                 zone: str = TRUSTED, replica: Optional[int] = None,
                 line: Optional[int] = None):
        _set_kind(self, kind)
        _set_out(self, out)
        _set_ins(self, ins)
        _set_zone(self, zone)
        _set_replica(self, replica)
        _set_line(self, line)


# Each slot's own setter, bound once: it stores a field directly, where a
# frozen dataclass's generated __init__ calls object.__setattr__ per field.
_set_kind, _set_out, _set_ins, _set_zone, _set_replica, _set_line = (
    Gate.kind.__set__, Gate.out.__set__, Gate.ins.__set__,
    Gate.zone.__set__, Gate.replica.__set__, Gate.line.__set__)


@dataclass(frozen=True)
class Netlist:
    """A named module's ports and gates, validated when constructed."""

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    gates: Tuple[Gate, ...]

    def __post_init__(self):
        validate(self)

    @cached_property
    def order(self) -> Tuple[Gate, ...]:
        """Gates in dependency order (``topo_order``), found once and kept:
        the file order when it is one."""
        return topo_order(self)

    @cached_property
    def evaluator(self) -> "Evaluator":
        """The netlist's evaluation plan, built on first use and kept."""
        return Evaluator(self)

    def wires(self) -> List[str]:
        return list(self.inputs) + [g.out for g in self.gates]


def _check_name(name: str, what: str, line: Optional[int] = None) -> None:
    if not WIRE_RE.match(name):
        raise NetlistError("invalid %s name %r" % (what, name), line)


def validate(n: Netlist) -> None:
    """Raise NetlistError on any structural violation; silent when valid.
    Names are walked one at a time only if one regex over them all fails."""
    names = [n.name, *n.inputs, *(g.out for g in n.gates), *n.outputs]
    text = "\n".join(names) + "\n"  # a name holding "\n" adds a line
    bulk_ok = _NAMES_RE.match(text) and text.count("\n") == len(names)
    check = (lambda *args: None) if bulk_ok else _check_name
    check(n.name, "module")
    driven = set()
    for w in n.inputs:
        check(w, "input")
        if w in driven:
            raise NetlistError("duplicate driver for wire %r "
                               "(declared as input twice)" % w)
        driven.add(w)
    for g in n.gates:
        if g.kind not in _KINDS:
            raise NetlistError("unknown gate kind %r" % g.kind, g.line)
        _, lo, hi, _, _ = _KINDS[g.kind]
        if len(g.ins) < lo or (hi is not None and len(g.ins) > hi):
            raise NetlistError(
                "gate %s %r takes %s inputs, got %d"
                % (g.kind, g.out, lo if hi == lo else "%d or more" % lo,
                   len(g.ins)), g.line)
        check(g.out, "wire", g.line)
        if g.zone not in (TRUSTED, UNTRUSTED):
            raise NetlistError("bad zone %r on wire %r" % (g.zone, g.out),
                               g.line)
        if g.replica is not None and g.replica < 0:
            raise NetlistError("negative replica index on wire %r" % g.out,
                               g.line)
        if g.out in driven:
            raise NetlistError("duplicate driver for wire %r" % g.out, g.line)
        driven.add(g.out)
    seen_out = set()
    for w in n.outputs:
        check(w, "output")
        if w not in driven:
            raise NetlistError("undriven output %r" % w)
        if w in seen_out:
            raise NetlistError("output %r listed twice" % w)
        seen_out.add(w)
    # the one ordering pass: file order, Kahn only over gates that read a
    # later wire; raises on an undriven read or a cycle
    n.order


def topo_order(n: Netlist) -> Tuple[Gate, ...]:
    """Gates in dependency order: ``n.gates`` itself when no gate reads a
    wire driven later, else the gates that read only inputs and earlier
    such gates, in file order, followed by Kahn's order over the rest (the
    late gates). Raises NetlistError on a read of a wire that is neither an
    input nor a gate output, or on a cycle."""
    done = set(n.inputs)
    late: List[Gate] = []
    for g in n.gates:
        if done.issuperset(g.ins):
            done.add(g.out)
        else:
            late.append(g)
    if not late:
        return n.gates
    # No in-order gate reads a late one, so Kahn counts only reads of late
    # outputs; its residual, and so the wire a cycle names, is unchanged.
    by_out = {g.out: g for g in late}
    pending: Dict[str, int] = {}
    readers: Dict[str, List[str]] = {}
    for g in late:
        deps = 0
        for w in g.ins:
            if w in by_out:
                deps += 1
                readers.setdefault(w, []).append(g.out)
            elif w not in done:
                _check_name(w, "wire", g.line)  # a malformed name says so
                raise NetlistError("undriven wire %r read by gate %r"
                                   % (w, g.out), g.line)
        pending[g.out] = deps
    queue = [g.out for g in late if pending[g.out] == 0]
    order = [g for g in n.gates if g.out in done]
    i = 0
    while i < len(queue):
        out = queue[i]
        i += 1
        order.append(by_out[out])
        for nxt in readers.get(out, ()):
            pending[nxt] -= 1
            if pending[nxt] == 0:
                queue.append(nxt)
    if len(order) != len(n.gates):
        stuck = sorted(w for w, d in pending.items() if d > 0)
        raise NetlistError("cycle detected through wire %r" % stuck[0],
                           by_out[stuck[0]].line)
    return tuple(order)


def _evaluate(ops, v: Dict[str, int], mask: int) -> None:
    """The one gate-dispatch body: evaluate ``ops`` in order into ``v``."""
    for base, complemented, out, ins in ops:
        if base == "AND":
            x = v[ins[0]]
            for w in ins[1:]:
                x &= v[w]
        elif base == "OR":
            x = v[ins[0]]
            for w in ins[1:]:
                x |= v[w]
        elif base == "XOR":
            x = v[ins[0]]
            for w in ins[1:]:
                x ^= v[w]
        elif base == "BUF":
            x = v[ins[0]]
        elif base == "MUX2":
            s = v[ins[0]]
            x = (v[ins[1]] & ~s) | (v[ins[2]] & s)
        else:  # CONST0
            x = 0
        if complemented:
            x ^= mask  # exact: every word stays within mask
        v[out] = x


class Evaluator:
    """Reusable word-parallel evaluation plan for one netlist. ``run`` and
    ``rerun`` (one forced lane, ``fanout`` only) share ``_evaluate``.

    ``run`` follows ``_plan``, where an op structurally equal to an
    earlier one (same base op, flag and representative inputs, in any
    order for and/or/xor; a buf or not of a gate counts as that gate,
    complemented for not) is a BUF of it and so shares its word.
    ``fanout`` follows ``_ops``, one op per physical gate, so a fault
    never reaches a structural twin.
    """

    def __init__(self, n: Netlist):
        # weak: the netlist caches its evaluator, and a strong reference
        # back would leave the pair to the cyclic garbage collector
        self._netlist = weakref.ref(n)
        self._inputs = n.inputs
        # (base op, complemented, out, ins) in dependency order
        self._ops = tuple((*_KINDS[g.kind][3:], g.out, g.ins)
                          for g in n.order)
        rep: Dict[str, str] = {}  # twin's out -> first equal gate's out
        key_of: Dict[str, tuple] = {}  # first gate's out -> its key
        first_of: Dict[tuple, str] = {}  # key -> first gate's out
        plan = []
        for op in self._ops:
            base, complemented, out, ins = op
            if base in _COMMUTATIVE:
                key = (base, complemented, *sorted(map(rep.get, ins, ins)))
            else:
                key = (base, complemented, *map(rep.get, ins, ins))
            if base == "BUF" and key[2] in key_of:
                # a buf or not of a gate is that gate, complemented or not
                inner = key_of[key[2]]
                key = (inner[0], inner[1] != complemented, *inner[2:])
            first = first_of.setdefault(key, out)
            if first is out:
                key_of[out] = key
            else:
                rep[out] = first
                op = ("BUF", False, out, (first,))
            plan.append(op)
        self._plan = tuple(plan)
        self._fanout: Dict[str, Tuple[tuple, ...]] = {}

    @property
    def netlist(self) -> Optional[Netlist]:
        """The netlist this plan was built from, while it is alive."""
        return self._netlist()

    def run(self, values: Mapping[str, int], mask: int = 1) -> Dict[str, int]:
        """Value of every wire given packed primary-input words."""
        v: Dict[str, int] = {}
        for w in self._inputs:
            if w not in values:
                raise NetlistError("missing input assignment for %r" % w)
            v[w] = values[w] & mask
        _evaluate(self._plan, v, mask)
        return v

    @cached_property
    def _readers(self) -> Dict[str, List[int]]:
        """Wire -> positions in ``_ops`` of the ops that read it."""
        readers: Dict[str, List[int]] = {}
        for i, op in enumerate(self._ops):
            for w in op[3]:
                readers.setdefault(w, []).append(i)
        return readers

    def fanout(self, wire: str) -> Tuple[tuple, ...]:
        """The ops downstream of ``wire`` in dependency order, cached."""
        if wire not in self._fanout:
            readers, cone, todo = self._readers, set(), [wire]
            while todo:
                for i in readers.get(todo.pop(), ()):
                    if i not in cone:
                        cone.add(i)
                        todo.append(self._ops[i][2])
            self._fanout[wire] = tuple(self._ops[i] for i in sorted(cone))
        return self._fanout[wire]

    def rerun(self, wires: Mapping[str, int], mask: int, wire: str,
              lane: int, value: int) -> Dict[str, int]:
        """A copy of ``wires``, a ``run`` pass under ``mask``, with ``wire``
        forced to ``value`` on ``lane`` only and its fanout re-evaluated."""
        v = dict(wires)
        v[wire] = (v[wire] & ~(1 << lane)) | ((value & 1) << lane)
        _evaluate(self.fanout(wire), v, mask)
        return v


def evaluate(n: Netlist, assignment: Mapping[str, int]) -> Dict[str, int]:
    """Outputs of n under a full primary-input assignment (bits 0/1)."""
    for w in n.inputs:
        if assignment.get(w, 0) not in (0, 1):
            raise NetlistError("input %r must be 0 or 1, got %r"
                               % (w, assignment[w]))
    v = n.evaluator.run(assignment)  # raises on a missing input
    return {w: v[w] for w in n.outputs}


def parse_netlist(text: str) -> Netlist:
    """Parse the text format. The parser checks syntax only; the Netlist
    constructor validates names, zones, replica indices and structure."""
    lines = text.splitlines()  # a comment runs from "#" to the line end
    lines = [ln.split("#", 1)[0] for ln in lines] if "#" in text else lines
    # (line number, tokens) of each line that holds a statement
    rows = filter(itemgetter(1), enumerate(map(str.split, lines), 1))
    lineno, tokens = next(rows, (None, None))
    if tokens is None:
        raise NetlistError("empty netlist: no module statement")
    if tokens[0] != "module":
        raise NetlistError("expected 'module', got %r" % tokens[0], lineno,
                           lines[lineno - 1].index(tokens[0]) + 1)
    if len(tokens) != 2:
        raise NetlistError("module takes exactly one name", lineno)
    inputs, outputs, gates = [], [], []  # gates: (kind, out, ins, line)
    zones, replicas, attr_line = {}, {}, {}  # attr_line: first, per wire
    books = {"zone": zones, "replica": replicas}
    for lineno, words in rows:
        head = words[0]
        kind = _KIND_OF_KEYWORD.get(head)
        if kind is not None and len(words) > 1:
            gates.append((kind, words[1], tuple(words[2:]), lineno))
        elif head == "attr":
            if len(words) != 4:
                raise NetlistError("attr takes: wire key value", lineno)
            _, wire, key, value = words
            book = books.get(key)
            if book is None:
                raise NetlistError("unknown attr key %r" % key, lineno)
            if wire in book:
                raise NetlistError("duplicate attr %s for wire %r"
                                   % (key, wire), lineno)
            if book is replicas:
                try:
                    value = int(value)
                except ValueError:
                    raise NetlistError("replica must be an integer", lineno)
            book[wire] = value
            attr_line.setdefault(wire, lineno)
        elif head == "input" or head == "output":
            if len(words) < 2:
                raise NetlistError("%s needs at least one wire" % head, lineno)
            (inputs if head == "input" else outputs).extend(words[1:])
        elif head == "end":
            if len(words) != 1:
                raise NetlistError("trailing tokens after 'end'", lineno)
            break
        elif head == "module":
            raise NetlistError("duplicate module statement", lineno)
        elif kind is not None:
            raise NetlistError("gate %r needs an output wire" % head, lineno)
        else:
            raise NetlistError("unknown statement %r" % head, lineno,
                               lines[lineno - 1].index(head) + 1)
    else:
        raise NetlistError("missing 'end'")
    for lineno, _ in rows:  # any statement left
        raise NetlistError("statement after 'end'", lineno)

    outs = {g[1] for g in gates}
    for wire, lineno in attr_line.items():
        if wire not in outs:
            raise NetlistError("attr on %r, which is not a gate output" % wire,
                               lineno)
    return Netlist(tokens[1], tuple(inputs), tuple(outputs), tuple([
        Gate(kind, out, ins, zones.get(out, TRUSTED), replicas.get(out),
             lineno) for kind, out, ins, lineno in gates]))


def write_netlist(n: Netlist) -> str:
    """Canonical text; parse_netlist(write_netlist(n)) is structurally n."""
    lines = ["module %s" % n.name]
    if n.inputs:
        lines.append("input %s" % " ".join(n.inputs))
    if n.outputs:
        lines.append("output %s" % " ".join(n.outputs))
    return "\n".join([*lines, *map(gate_text, n.gates), "end", ""])


def gate_text(g: Gate) -> str:
    """Statement line for a gate plus its attr lines, newline-joined."""
    line = " ".join((_KINDS[g.kind][0], g.out, *g.ins))
    if g.zone == TRUSTED:
        return line if g.replica is None else "%s\nattr %s replica %d" % (
            line, g.out, g.replica)
    if g.replica is None:
        return "%s\nattr %s zone %s" % (line, g.out, g.zone)
    return "%s\nattr %s zone %s\nattr %s replica %d" % (
        line, g.out, g.zone, g.out, g.replica)


def read_netlist(path) -> Netlist:
    with open(path, "r", encoding="utf-8") as f:
        return parse_netlist(f.read())


def save_netlist(n: Netlist, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_netlist(n))
