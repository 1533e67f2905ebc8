"""Benchmark netlist generators.

Each fixture has semantics checkable against an external oracle: the AES
byte-substitution table (built here from first principles in GF(2^8)),
integer addition, and the k-of-n majority definition.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Mapping, Sequence, Tuple

from .netlist import Gate, Netlist

FIXTURE_KINDS = ("aes-sbox", "maj9", "adder4", "and-tree-n")


def _rotl8(b: int, k: int) -> int:
    return ((b << k) | (b >> (8 - k))) & 0xFF


def aes_sbox_table() -> Tuple[int, ...]:
    """The 256-entry AES S-box: GF(2^8) inverse followed by the affine map.
    The inverse is read off exp/log tables over the generator 3, modulo
    x^8 + x^4 + x^3 + x + 1; 0 maps to 0."""
    exp, log = [0] * 255, [0] * 256
    x = 1
    for i in range(255):
        exp[i], log[x] = x, i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)  # x * 3
    table = []
    for x in range(256):
        b = exp[(255 - log[x]) % 255] if x else 0
        table.append(b ^ _rotl8(b, 1) ^ _rotl8(b, 2) ^ _rotl8(b, 3)
                     ^ _rotl8(b, 4) ^ 0x63)
    return tuple(table)


def byte_assignment(names_msb_first: Sequence[str], value: int) -> Dict[str, int]:
    """Spread an integer over named wires, first name taking the MSB."""
    width = len(names_msb_first)
    if not 0 <= value < (1 << width):
        raise ValueError("value %d does not fit in %d bits" % (value, width))
    return {name: (value >> (width - 1 - i)) & 1
            for i, name in enumerate(names_msb_first)}


def byte_value(names_msb_first: Sequence[str], bits: Mapping[str, int]) -> int:
    """Inverse of byte_assignment."""
    v = 0
    for name in names_msb_first:
        v = (v << 1) | (bits[name] & 1)
    return v


def make_aes_sbox() -> Netlist:
    """8-in/8-out S-box as per-output-bit two-level sum of products.

    Inputs x7..x0 (x7 = MSB), outputs y7..y0. Deliberately naive: the truth
    table is the contract, not the gate count.
    """
    table = aes_sbox_table()
    inputs = tuple("x%d" % i for i in range(7, -1, -1))
    gates: List[Gate] = []
    for i in range(8):
        gates.append(Gate("NOT", "nx%d" % i, ("x%d" % i,)))
    # minterm v's literals, built once and shared by the 8 output bits
    lits = [tuple(("x%d" if (v >> i) & 1 else "nx%d") % i
                  for i in range(7, -1, -1)) for v in range(256)]
    for bit in range(8):
        terms = []
        for v in range(256):
            if (table[v] >> bit) & 1:
                t = "t%d_%02x" % (bit, v)
                gates.append(Gate("AND", t, lits[v]))
                terms.append(t)
        gates.append(Gate("OR", "y%d" % bit, tuple(terms)))
    return Netlist("aes_sbox", inputs,
                   tuple("y%d" % i for i in range(7, -1, -1)), tuple(gates))


def make_maj9() -> Netlist:
    """9-input majority: OR over all 126 five-element AND terms."""
    inputs = tuple("x%d" % i for i in range(1, 10))
    gates: List[Gate] = []
    terms = []
    for k, combo in enumerate(combinations(range(9), 5)):
        t = "t%d" % k
        gates.append(Gate("AND", t, tuple("x%d" % (j + 1) for j in combo)))
        terms.append(t)
    gates.append(Gate("OR", "y", tuple(terms)))
    return Netlist("maj9", inputs, ("y",), tuple(gates))


def make_adder4() -> Netlist:
    """4-bit ripple-carry adder: inputs a3..a0 b3..b0, outputs cout s3..s0."""
    inputs = tuple("a%d" % i for i in range(3, -1, -1)) + \
        tuple("b%d" % i for i in range(3, -1, -1))
    gates: List[Gate] = []
    carry = None
    for i in range(4):
        a, b = "a%d" % i, "b%d" % i
        gates.append(Gate("XOR", "p%d" % i, (a, b)))
        gates.append(Gate("AND", "g%d" % i, (a, b)))
        if carry is None:
            gates.append(Gate("BUF", "s%d" % i, ("p%d" % i,)))
            carry = "g0"
        else:
            gates.append(Gate("XOR", "s%d" % i, ("p%d" % i, carry)))
            gates.append(Gate("AND", "pc%d" % i, ("p%d" % i, carry)))
            gates.append(Gate("OR", "c%d" % (i + 1), ("g%d" % i, "pc%d" % i)))
            carry = "c%d" % (i + 1)
    gates.append(Gate("BUF", "cout", (carry,)))
    outputs = ("cout",) + tuple("s%d" % i for i in range(3, -1, -1))
    return Netlist("adder4", inputs, outputs, tuple(gates))


def make_and_tree(n_inputs: int) -> Netlist:
    """Balanced tree of 2-input ANDs over n_inputs inputs."""
    if n_inputs < 2:
        raise ValueError("and-tree needs at least 2 inputs")
    inputs = tuple("x%d" % i for i in range(1, n_inputs + 1))
    gates: List[Gate] = []
    level = list(inputs)
    k = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            w = "a%d" % k
            k += 1
            gates.append(Gate("AND", w, (level[i], level[i + 1])))
            nxt.append(w)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    gates.append(Gate("BUF", "y", (level[0],)))
    return Netlist("and_tree_%d" % n_inputs, inputs, ("y",), tuple(gates))


def fixture_generate(kind: str, **params) -> Netlist:
    """Build a named fixture; an unknown kind or a parameter the kind does
    not take raises ValueError."""
    if kind not in FIXTURE_KINDS:
        raise ValueError("unknown fixture kind %r (known: %s)"
                         % (kind, ", ".join(FIXTURE_KINDS)))
    extra = sorted(set(params) - ({"n"} if kind == "and-tree-n" else set()))
    if extra:
        raise ValueError("fixture %s takes no parameter %r" % (kind, extra[0]))
    if kind == "aes-sbox":
        return make_aes_sbox()
    if kind == "maj9":
        return make_maj9()
    if kind == "adder4":
        return make_adder4()
    n = params.get("n")
    if n is None:
        raise ValueError("and-tree-n requires the parameter n")
    return make_and_tree(int(n))
