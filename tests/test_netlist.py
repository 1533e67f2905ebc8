import copy
import gc
import pickle
import random
import re
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from recordkit import (RecordConfig, fixture_generate, netlist, transform,
                       transform_ft)
from recordkit.netlist import (Evaluator, Gate, Netlist, NetlistError,
                               evaluate, parse_netlist, topo_order, validate,
                               write_netlist)

INV = "module inv\ninput a\noutput y\nnot y a\nend"


def test_parse_smallest_module():
    n = parse_netlist(INV)
    assert n.name == "inv"
    assert n.inputs == ("a",)
    assert n.outputs == ("y",)
    assert len(n.gates) == 1
    g = n.gates[0]
    assert g == Gate("NOT", "y", ("a",)) and g.line == 4
    # the gate record: slotted and frozen; its line is neither compared,
    # hashed nor shown, and replace, copy and pickle keep it
    assert not hasattr(g, "__dict__")
    with pytest.raises(FrozenInstanceError):
        g.out = "z"
    assert hash(g) == hash(Gate("NOT", "y", ("a",)))
    assert repr(g) == ("Gate(kind='NOT', out='y', ins=('a',), "
                       "zone='trusted', replica=None)")
    assert replace(g, out="z") == Gate("NOT", "z", ("a",))
    assert replace(g, out="z").line == 4
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.line == 4
    # each form sets all six fields, each to its own value
    names = [f.name for f in fields(Gate)]
    values = ("AND", "y", ("a", "b"), "untrusted", 2, 7)
    for built in (Gate(*values), Gate(**dict(zip(names, values)))):
        assert tuple(getattr(built, f) for f in names) == values
    assert tuple(getattr(Gate("AND", "y", ("a", "b")), f) for f in names) \
        == ("AND", "y", ("a", "b"), "trusted", None, None)


def test_duplicate_driver():
    text = "module inv\ninput a\noutput y\nnot y a\nnot y a\nend"
    with pytest.raises(NetlistError, match="duplicate driver.*'y'"):
        parse_netlist(text)


def test_input_redriven_is_duplicate():
    text = "module m\ninput a\noutput a\nnot a a\nend"
    with pytest.raises(NetlistError, match="duplicate driver"):
        parse_netlist(text)


def test_cycle_detected():
    text = ("module loop\ninput a\noutput y\n"
            "and w1 a w2\nand w2 a w1\nbuf y w1\nend")
    with pytest.raises(NetlistError, match="cycle"):
        parse_netlist(text)


def test_undriven_wire():
    text = "module m\ninput a\noutput y\nand y a ghost\nend"
    with pytest.raises(NetlistError, match="undriven wire 'ghost'"):
        parse_netlist(text)


def test_bad_arity():
    with pytest.raises(NetlistError, match="takes"):
        parse_netlist("module m\ninput a\noutput y\nnot y a a\nend")
    with pytest.raises(NetlistError, match="takes"):
        parse_netlist("module m\ninput a b\noutput y\nand y a\nend")
    with pytest.raises(NetlistError, match="takes"):
        parse_netlist("module m\ninput s a b c\noutput y\nmux y s a b c\nend")
    with pytest.raises(NetlistError, match="line 4: gate CONST0 'y' takes 0"):
        parse_netlist("module m\ninput a\noutput y\nconst0 y a\nend")
    with pytest.raises(NetlistError, match="line 4: .*needs an output wire"):
        parse_netlist("module m\ninput a\noutput a\nconst1\nend")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(NetlistError, match="line 3"):
        parse_netlist("module m\ninput a\nfrobnicate y a\nend")
    with pytest.raises(NetlistError, match="expected 'module'"):
        parse_netlist("input a\nend")
    with pytest.raises(NetlistError, match="missing 'end'"):
        parse_netlist("module m\ninput a\noutput a")
    with pytest.raises(NetlistError, match="after 'end'"):
        parse_netlist("module m\ninput a\noutput a\nend\nnot y a")
    with pytest.raises(NetlistError, match="line 4: invalid wire name 'b-c'"):
        parse_netlist("module m\ninput a\noutput y\nand y a b-c\nend")


HEAD = "module m\ninput a\noutput y\n"


# Every parse and validate error, with its exact message, line and column.
@pytest.mark.parametrize("text, message, line, column", [
    ("", "empty netlist: no module statement", None, None),
    ("# only a comment\n\n  \n", "empty netlist: no module statement",
     None, None),
    ("  input a\nend", "expected 'module', got 'input'", 1, 3),
    ("\nmodule m n\nend", "module takes exactly one name", 2, None),
    ("module\nend", "module takes exactly one name", 1, None),
    ("module m\nmodule n\nend", "duplicate module statement", 2, None),
    ("module m\nend x", "trailing tokens after 'end'", 2, None),
    ("module m\ninput a\noutput a\nend\n\nnot y a",
     "statement after 'end'", 6, None),
    ("module m\ninput a\noutput a", "missing 'end'", None, None),
    ("module m\ninput\nend", "input needs at least one wire", 2, None),
    ("module m\ninput a\noutput # y\nend",
     "output needs at least one wire", 3, None),
    ("module m\ninput a\n   frobnicate y a\nend",
     "unknown statement 'frobnicate'", 3, 4),
    ("module m\ninput a\noutput a\n\tconst1\nend",
     "gate 'const1' needs an output wire", 4, None),
    (HEAD + "not y a\nattr y zone\nend", "attr takes: wire key value",
     5, None),
    (HEAD + "not y a\nattr y color blue\nend", "unknown attr key 'color'",
     5, None),
    (HEAD + "not y a\nattr y replica x\nend", "replica must be an integer",
     5, None),
    (HEAD + "attr y replica 1\nnot y a\nattr y replica x\nend",
     "duplicate attr replica for wire 'y'", 6, None),
    (HEAD + "not y a\nattr a zone untrusted\nattr y zone mystery\n"
     "attr b replica 1\nattr a replica 2\nend",
     "attr on 'a', which is not a gate output", 5, None),
    (HEAD + "not y a\nattr y zone mystery\nend",
     "bad zone 'mystery' on wire 'y'", 4, None),
    (HEAD + "not y a\nattr y replica -1\nend",
     "negative replica index on wire 'y'", 4, None),
    ("module 1m\ninput a\noutput a\nend", "invalid module name '1m'",
     None, None),
    ("module m\ninput a a.b 0c\noutput a\nend", "invalid input name '0c'",
     None, None),
    ("module m\ninput a a\noutput a\nend",
     "duplicate driver for wire 'a' (declared as input twice)", None, None),
    (HEAD + "not y a\nnot b-c a\nend", "invalid wire name 'b-c'", 5, None),
    (HEAD + "not y a\nnot y a\nend", "duplicate driver for wire 'y'",
     5, None),
    (HEAD + "not a a\nend", "duplicate driver for wire 'a'", 4, None),
    (HEAD + "not y a a\nend", "gate NOT 'y' takes 1 inputs, got 2", 4, None),
    ("module m\ninput a b\noutput y\nand y a # b\nend",
     "gate AND 'y' takes 2 or more inputs, got 1", 4, None),
    ("module m\ninput a\noutput y-z\nnot y a\nend",
     "invalid output name 'y-z'", None, None),
    ("module m\ninput a\noutput z\nnot y a\nend", "undriven output 'z'",
     None, None),
    ("module m\ninput a\noutput y y\nnot y a\nend",
     "output 'y' listed twice", None, None),
    (HEAD + "and y a ghost\nend", "undriven wire 'ghost' read by gate 'y'",
     4, None),
    (HEAD + "and w1 a y\nand y a w1\nend", "cycle detected through wire 'w1'",
     4, None),
], ids=["empty", "comments-only", "expected-module", "module-two-names",
        "module-no-name", "duplicate-module", "trailing-after-end",
        "statement-after-end", "missing-end", "input-no-wire",
        "output-no-wire", "unknown-statement", "gate-no-output",
        "attr-arity", "attr-key", "replica-integer", "duplicate-attr",
        "attr-not-output", "bad-zone", "negative-replica",
        "invalid-module", "invalid-input", "input-twice", "invalid-wire",
        "duplicate-driver", "input-redriven", "arity", "mid-line-comment",
        "invalid-output", "undriven-output", "output-twice", "undriven-read",
        "cycle"])
def test_every_error_is_pinned_with_its_line_and_column(text, message, line,
                                                        column):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(text)
    assert (exc.value.args[0], exc.value.line, exc.value.column) == (
        NetlistError(message, line, column).args[0], line, column)


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\v", "\f", "\x1c",
                                 "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_line_numbers_follow_str_splitlines(brk):
    text = brk.join(["module m", "input a", "", "frob y a", "end"])
    with pytest.raises(NetlistError) as exc:
        parse_netlist(text)
    assert (exc.value.line, exc.value.column) == (4, 1)
    n = parse_netlist(brk.join([HEAD.rstrip(), "not y a # c", "end", ""]))
    assert n.gates == (Gate("NOT", "y", ("a",)),) and n.gates[0].line == 4


def test_comments_and_blank_lines():
    text = ("# header\nmodule m  # name\n\ninput a b\n"
            "output y\nand y a b  # the gate\nend\n# trailing\n")
    n = parse_netlist(text)
    assert evaluate(n, {"a": 1, "b": 1}) == {"y": 1}


def test_attrs_parse_and_persist():
    text = ("module m\ninput a\noutput y\nnot y a\n"
            "attr y zone untrusted\nattr y replica 3\nend")
    n = parse_netlist(text)
    assert n.gates[0].zone == "untrusted"
    assert n.gates[0].replica == 3
    out = write_netlist(n)
    assert "attr y zone untrusted" in out
    assert "attr y replica 3" in out
    assert parse_netlist(out) == n
    # attr lines may come before the gate they annotate
    early = parse_netlist("module m\ninput a\noutput y\nattr y replica 3\n"
                          "attr y zone untrusted\nnot y a\nend")
    assert early == n and early.gates[0].line == 6


def test_attr_errors():
    base = "module m\ninput a\noutput y\nnot y a\n%s\nend"
    with pytest.raises(NetlistError, match="not a gate output"):
        parse_netlist(base % "attr a zone untrusted")
    with pytest.raises(NetlistError, match="bad zone"):
        parse_netlist(base % "attr y zone mystery")
    with pytest.raises(NetlistError, match="unknown attr"):
        parse_netlist(base % "attr y color blue")
    with pytest.raises(NetlistError, match="replica must be"):
        parse_netlist(base % "attr y replica x")
    with pytest.raises(NetlistError, match="negative replica index"):
        parse_netlist(base % "attr y replica -1")
    with pytest.raises(NetlistError,
                       match="line 6: duplicate attr zone for wire 'y'"):
        parse_netlist(base % "attr y zone untrusted\nattr y zone trusted")
    with pytest.raises(NetlistError, match="line 5: attr takes"):
        parse_netlist(base % "attr y zone")


def test_zone_defaults_to_trusted():
    n = parse_netlist(INV)
    assert n.gates[0].zone == "trusted"
    assert "attr" not in write_netlist(n)


def test_roundtrip_inverter():
    n = parse_netlist(INV)
    assert parse_netlist(write_netlist(n)) == n


def test_evaluate_gate_truth_tables():
    text = ("module gates\ninput a b s\noutput w_and w_or w_nand w_nor "
            "w_xor w_xnor w_not w_buf w_mux w_c0 w_c1\n"
            "and w_and a b\nor w_or a b\nnand w_nand a b\nnor w_nor a b\n"
            "xor w_xor a b\nxnor w_xnor a b\nnot w_not a\nbuf w_buf a\n"
            "mux w_mux s a b\nconst0 w_c0\nconst1 w_c1\nend")
    n = parse_netlist(text)
    for a in (0, 1):
        for b in (0, 1):
            for s in (0, 1):
                out = evaluate(n, {"a": a, "b": b, "s": s})
                assert out["w_and"] == (a & b)
                assert out["w_or"] == (a | b)
                assert out["w_nand"] == 1 - (a & b)
                assert out["w_nor"] == 1 - (a | b)
                assert out["w_xor"] == (a ^ b)
                assert out["w_xnor"] == 1 - (a ^ b)
                assert out["w_not"] == 1 - a
                assert out["w_buf"] == a
                assert out["w_mux"] == (b if s else a)
                assert out["w_c0"] == 0
                assert out["w_c1"] == 1


def test_multi_input_xor_is_parity():
    n = parse_netlist("module p\ninput a b c\noutput y\nxor y a b c\nend")
    for v in range(8):
        a, b, c = (v >> 2) & 1, (v >> 1) & 1, v & 1
        assert evaluate(n, {"a": a, "b": b, "c": c})["y"] == (a ^ b ^ c)


def test_evaluate_missing_input():
    n = parse_netlist("module m\ninput a b\noutput y\nand y a b\nend")
    with pytest.raises(NetlistError, match="missing input.*'b'"):
        evaluate(n, {"a": 1})


def test_evaluate_rejects_non_bits():
    n = parse_netlist(INV)
    with pytest.raises(NetlistError, match="must be 0 or 1"):
        evaluate(n, {"a": 2})


def test_output_must_be_driven():
    with pytest.raises(NetlistError, match="undriven output"):
        parse_netlist("module m\ninput a\noutput y\nend")


def test_output_may_be_an_input():
    n = parse_netlist("module m\ninput a\noutput a\nend")
    assert evaluate(n, {"a": 1}) == {"a": 1}


def test_wire_name_charset():
    with pytest.raises(NetlistError, match="invalid"):
        parse_netlist("module m\ninput 1a\noutput y\nnot y 1a\nend")
    n = parse_netlist("module m\ninput a.b_c\noutput y\nnot y a.b_c\nend")
    assert evaluate(n, {"a.b_c": 0}) == {"y": 1}


def _random_dag(rng: random.Random, n_inputs: int, n_gates: int) -> Netlist:
    inputs = tuple("i%d" % k for k in range(n_inputs))
    wires = list(inputs)
    gates = []
    kinds = ["NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX2"]
    for k in range(n_gates):
        kind = rng.choice(kinds)
        arity = {"NOT": 1, "BUF": 1, "MUX2": 3}.get(kind, rng.randint(2, 4))
        ins = tuple(rng.choice(wires) for _ in range(arity))
        out = "w%d" % k
        gates.append(Gate(kind, out, ins))
        wires.append(out)
    return Netlist("rand", inputs, (wires[-1],), tuple(gates))


def test_random_netlists_validate_and_order():
    rng = random.Random(2024)
    for _ in range(50):
        n = _random_dag(rng, rng.randint(1, 5), rng.randint(1, 30))
        validate(n)
        order = topo_order(n)
        seen = set(n.inputs)
        for g in order:
            assert all(w in seen for w in g.ins)
            seen.add(g.out)


def test_random_netlists_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        n = _random_dag(rng, rng.randint(1, 4), rng.randint(1, 20))
        assert parse_netlist(write_netlist(n)) == n


# Per-kind reference over one lane's operand bits, complemented as named.
_REFERENCE = {
    "BUF": lambda b: b[0], "NOT": lambda b: 1 - b[0],
    "AND": all, "NAND": lambda b: not all(b),
    "OR": any, "NOR": lambda b: not any(b),
    "XOR": lambda b: sum(b) % 2, "XNOR": lambda b: 1 - sum(b) % 2,
    "MUX2": lambda b: b[2] if b[0] else b[1],
    "CONST0": lambda b: 0, "CONST1": lambda b: 1,
}
_REF_ARITY = {"BUF": (1, 1), "NOT": (1, 1), "MUX2": (3, 3),
              "CONST0": (0, 0), "CONST1": (0, 0)}


@st.composite
def _dag_over_every_kind(draw):
    n_inputs = draw(st.integers(1, 5))
    wires = ["i%d" % k for k in range(n_inputs)]
    gates = []
    for k in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(sorted(_REFERENCE)))
        lo, hi = _REF_ARITY.get(kind, (2, 4))
        ins = draw(st.lists(st.sampled_from(wires), min_size=lo,
                            max_size=hi))
        gates.append(Gate(kind, "w%d" % k, tuple(ins)))
        wires.append("w%d" % k)
    # gates listed out of dependency order exercise the plan's sort
    gates = draw(st.permutations(gates))
    return Netlist("rand", tuple(wires[:n_inputs]), (wires[-1],),
                   tuple(gates))


@settings(max_examples=200, deadline=None)
@given(_dag_over_every_kind())
def test_evaluator_matches_per_kind_reference_on_every_lane(n):
    validate(n)
    count = 1 << len(n.inputs)
    mask = (1 << count) - 1
    # lane j carries input assignment j; bits above the mask are junk
    values = {w: sum(((j >> p) & 1) << j for j in range(count)) | ~mask
              for p, w in enumerate(n.inputs)}
    got = Evaluator(n).run(values, mask=mask)
    for j in range(count):
        lane = {w: (j >> p) & 1 for p, w in enumerate(n.inputs)}
        for g in topo_order(n):
            lane[g.out] = int(_REFERENCE[g.kind]([lane[w] for w in g.ins]))
        for w, bit in lane.items():
            assert (got[w] >> j) & 1 == bit, (w, j)
    assert all(0 <= word <= mask for word in got.values())


def stuck_at(n, wire, value):
    """n with ``wire``'s gate replaced by a constant ``value``, keeping its
    zone and replica: a fault oracle that a plain ``run`` evaluates."""
    return Netlist(n.name, n.inputs, n.outputs, tuple(
        replace(g, kind="CONST%d" % value, ins=()) if g.out == wire else g
        for g in n.gates))


def scanned_fanout(ev, wire):
    """The reference fanout: one scan over every op in dependency order."""
    cone, ops = {wire}, []
    for op in ev._ops:
        if not cone.isdisjoint(op[3]):
            cone.add(op[2])
            ops.append(op)
    return tuple(ops)


@settings(max_examples=200, deadline=None)
@given(_dag_over_every_kind(), st.data())
def test_rerun_equals_a_stuck_at_run_on_its_lane_only(n, data):
    count = 1 << len(n.inputs)
    mask = (1 << count) - 1
    values = {w: sum(((j >> p) & 1) << j for j in range(count))
              for p, w in enumerate(n.inputs)}
    ev = Evaluator(n)
    base = ev.run(values, mask=mask)
    wire = data.draw(st.sampled_from(sorted(g.out for g in n.gates)))
    lane = data.draw(st.integers(0, count - 1))
    value = data.draw(st.integers(0, 1))
    got = ev.rerun(base, mask, wire, lane, value)
    forced = stuck_at(n, wire, value).evaluator.run(
        {w: (values[w] >> lane) & 1 for w in n.inputs})
    assert got.keys() == base.keys()
    others = mask ^ (1 << lane)
    for w, word in got.items():
        assert (word >> lane) & 1 == forced[w], w
        assert word & others == base[w] & others, w
    assert base == ev.run(values, mask=mask)  # the pass is left as it was
    assert ev.fanout(wire) == scanned_fanout(ev, wire)
    cone = {op[2] for op in ev.fanout(wire)}
    assert {w for w in got if got[w] != base[w]} <= cone | {wire}


@pytest.mark.parametrize("gates, message", [
    ((Gate("AND", "y", ("a", "ghost")),), "undriven wire 'ghost'"),
    ((Gate("NOT", "y", ("a",)), Gate("BUF", "y", ("a",))),
     "duplicate driver for wire 'y'"),
    ((Gate("AND", "y", ("a",)),), "AND 'y' takes 2 or more inputs, got 1"),
    ((Gate("AND", "w", ("a", "y")), Gate("AND", "y", ("a", "w"))),
     "cycle detected through wire 'w'"),
    ((Gate("AND", "y", ("a", "b-c")),), "invalid wire name 'b-c'"),
], ids=["undriven-read", "duplicate-driver", "one-input-and", "cycle",
        "invalid-read-name"])
def test_construction_rejects_invalid_netlists(gates, message):
    with pytest.raises(NetlistError, match=message):
        Netlist("m", ("a",), ("y",), gates)


@st.composite
def _any_gate_list(draw):
    # mostly well formed, but a gate may take any number of inputs, drive
    # an existing wire or read an undeclared, its own or a later wire
    wires = ["i0", "i1"]
    gates = []
    for k in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sorted(_REFERENCE)))
        lo, hi = _REF_ARITY.get(kind, (2, 4))
        if draw(st.integers(0, 15)) == 0:
            lo, hi = 0, 4
        out = draw(st.sampled_from(["w%d" % k] * 40 + wires))
        reads = st.sampled_from(wires * 16 + ["ghost", out, "w%d" % (k + 1)])
        ins = draw(st.lists(reads, min_size=lo, max_size=hi))
        gates.append(Gate(kind, out, tuple(ins)))
        wires.append(out)
    outputs = draw(st.lists(st.sampled_from(wires + ["ghost"]), min_size=1,
                            max_size=2))
    return tuple(outputs), tuple(draw(st.permutations(gates)))


@settings(max_examples=300, deadline=None)
@given(_any_gate_list())
def test_every_constructed_netlist_evaluates_and_roundtrips(parts):
    outputs, gates = parts
    try:
        n = Netlist("m", ("i0", "i1"), outputs, gates)
    except NetlistError:
        return
    # lane j carries input assignment j, so all four lanes run at once
    values = {"i0": 0b1010, "i1": 0b1100}
    assert set(n.evaluator.run(values, mask=0b1111)) == set(n.wires())
    assert parse_netlist(write_netlist(n)) == n


def _mostly(good, bad):
    """Each good value about eight times as likely as each bad one."""
    return st.sampled_from(list(good) * 8 + list(bad))


NAMES = _mostly(["a", "b", "y", "w", "a.b", "_x"],
                ["", "1a", "b-c", "a\nb", "a b", "\u00e9", "y\n"])


@st.composite
def _netlist_parts(draw):
    """Netlist fields with a few bad names, kinds, arities, zones, replica
    indices, repeated drivers and outputs mixed into valid ones."""
    gates = []
    for k in range(draw(st.integers(0, 5))):
        kind = draw(_mostly(sorted(_REFERENCE), ["BOGUS"]))
        lo, hi = _REF_ARITY.get(kind, (2, 4))
        if draw(st.integers(0, 9)) == 0:
            lo, hi = max(lo - 1, 0), hi + 1
        ins = draw(st.lists(NAMES, min_size=lo, max_size=hi))
        gates.append(Gate(kind, draw(NAMES), tuple(ins),
                          draw(_mostly(["trusted", "untrusted"], ["grey"])),
                          draw(_mostly([None, 0, 2], [-1])), line=k + 4))
    return (draw(NAMES), tuple(draw(st.lists(NAMES, max_size=3))),
            tuple(draw(st.lists(NAMES, max_size=3))), tuple(gates))


@settings(max_examples=500, deadline=None)
@given(_netlist_parts())
def test_bulk_name_check_reports_what_the_name_by_name_walk_does(parts):
    """validate checks all names with one regex, and walks them one at a
    time only when it fails: with that regex failing every netlist, the
    walk raises the same error, or none, as the bulk check lets through."""
    def outcome():
        try:
            Netlist(*parts)
        except NetlistError as exc:
            return str(exc), exc.line, exc.column
    bulk = outcome()
    with patch.object(netlist, "_NAMES_RE", re.compile(r"(?!)")):
        assert outcome() == bulk


def test_order_is_cached_per_netlist():
    n = parse_netlist("module m\ninput a b\noutput y\n"
                      "and y a w\nnot w b\nend")
    assert n.order is n.order
    assert n.order == topo_order(n)
    assert [g.out for g in n.order] == ["w", "y"]


def _is_dependency_order(n, order):
    seen = set(n.inputs)
    for g in order:
        if not seen.issuperset(g.ins):
            return False
        seen.add(g.out)
    return True


@settings(max_examples=200, deadline=None)
@given(_dag_over_every_kind())
def test_order_is_a_dependency_permutation_of_the_gates(n):
    assert sorted(n.order, key=repr) == sorted(n.gates, key=repr)
    assert _is_dependency_order(n, n.order)
    if _is_dependency_order(n, n.gates):
        assert n.order is n.gates


def _emitted_netlists():
    for kind, params in [("aes-sbox", {}), ("maj9", {}), ("adder4", {}),
                         ("and-tree-n", {"n": 7})]:
        n = fixture_generate(kind, **params)
        yield kind, n
        for groups in (1, 2):
            d = transform(n, RecordConfig.checkerboard(n, groups))
            yield "%s-G%d" % (kind, groups), d.netlist
        ft = transform_ft(n, RecordConfig.checkerboard(n, 1))
        yield kind + "-ft", ft.design.netlist


def test_every_emitted_netlist_keeps_its_file_order():
    for name, n in _emitted_netlists():
        assert n.order is n.gates, name
        assert parse_netlist(write_netlist(n)).order == n.gates, name


# Each message is the one the full Kahn pass over every gate reports: the
# first gate in file order with an undriven read, and the least wire left
# in Kahn's residual, which includes gates downstream of a cycle.
@pytest.mark.parametrize("body, message", [
    ("and y w ghost1\nnot w a\nbuf z ghost0",
     "line 4: undriven wire 'ghost1' read by gate 'y'"),
    ("and y w b-c\nnot w a\nbuf z ghost0",
     "line 4: invalid wire name 'b-c'"),
    ("buf b0 c0\nand q a p\nnot aa a\nbuf p q\nxor n2 m2 aa\n"
     "or m2 n2 a\nnot c0 a\nand y q n2 aa",
     "line 9: cycle detected through wire 'm2'"),
    ("buf b0 c0\nand q a p\nnot aa a\nbuf p q\nbuf d1 p\nxor n2 m2 aa\n"
     "or m2 n2 a\nnot c0 a\nand y q n2 aa",
     "line 8: cycle detected through wire 'd1'"),
], ids=["undriven-late-read", "invalid-late-read", "two-cycles",
        "two-cycles-and-a-reader"])
def test_late_gates_report_the_full_kahn_error(body, message):
    with pytest.raises(NetlistError) as exc:
        parse_netlist("module m\ninput a\noutput y\n%s\nend\n" % body)
    assert str(exc.value) == message


def test_reversed_buf_chain_orders_and_its_ring_raises():
    size = 20000
    chain = [Gate("BUF", "w%d" % k, ("w%d" % (k - 1) if k else "a",))
             for k in range(size)]
    last = "w%d" % (size - 1)
    n = Netlist("chain", ("a",), (last,), tuple(reversed(chain)))
    assert n.order == tuple(chain)
    assert evaluate(n, {"a": 1}) == {last: 1}
    ring = (Gate("BUF", "w0", (last,)),) + tuple(chain[1:])
    with pytest.raises(NetlistError,
                       match="^cycle detected through wire 'w0'$"):
        Netlist("ring", ("a",), (last,), tuple(reversed(ring)))


def test_evaluator_is_cached_per_netlist():
    n = parse_netlist(INV)
    assert n.evaluator is n.evaluator
    assert n.evaluator.netlist is n
    twin = parse_netlist(INV)
    assert twin == n and hash(twin) == hash(n)
    assert twin.evaluator is not n.evaluator


def test_dropped_netlist_is_freed_without_the_cycle_collector():
    n = parse_netlist(INV)
    assert n.evaluator.run({"a": 1}) == {"a": 1, "y": 0}
    alive = weakref.ref(n)
    gc.disable()
    try:
        del n
        assert alive() is None
    finally:
        gc.enable()


_COMMUTATIVE_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")
_FLIPPED = {"AND": "NAND", "OR": "NOR", "XOR": "XNOR", "BUF": "NOT",
            "CONST0": "CONST1"}
_FLIPPED.update({v: k for k, v in _FLIPPED.items()})


@st.composite
def _dag_with_twins(draw):
    """A random DAG in which some gates repeat an earlier gate with its
    inputs permuted (and/or/xor kinds) or replaced by their twins, or as a
    buf, a double not or the not of its complemented kind, and some muxes
    repeat an earlier mux with its data inputs swapped."""
    n_inputs = draw(st.integers(3, 5))
    wires = ["i%d" % k for k in range(n_inputs)]
    gates, twins, swapped = [], [], []
    twin_of = {}  # wire -> an earlier wire it must share a word with
    for k in range(draw(st.integers(1, 16))):
        out = "w%d" % k
        move = draw(st.integers(0, 4)) if gates else 0
        if move == 1:  # a twin of an earlier gate
            g = draw(st.sampled_from(gates))
            ins = [twin_of.get(w, w) if draw(st.booleans()) else w
                   for w in g.ins]
            if g.kind in _COMMUTATIVE_KINDS:
                ins = draw(st.permutations(ins))
            gates.append(Gate(g.kind, out, tuple(ins)))
            twins.append((g.out, out))
            twin_of[out] = g.out
        elif move == 2:  # a mux and its copy with swapped data inputs
            s = draw(st.sampled_from(wires))
            a0, a1 = draw(st.permutations(wires[:n_inputs]))[:2]
            gates.append(Gate("MUX2", out, (s, a0, a1)))
            gates.append(Gate("MUX2", out + "s", (s, a1, a0)))
            swapped.append((out, out + "s"))
            wires.append(out)
            out = out + "s"
        elif move == 3:  # buf(g), not(not(g)) and not(g) = g's flipped kind
            g = draw(st.sampled_from(gates))
            gates += [Gate("BUF", out + "b", (g.out,)),
                      Gate("NOT", out + "n", (g.out,)),
                      Gate("NOT", out, (out + "n",))]
            twins += [(g.out, out + "b"), (g.out, out)]
            wires += [out + "b", out + "n"]
            if g.kind in _FLIPPED:
                ins = list(g.ins)
                if g.kind in _COMMUTATIVE_KINDS:
                    ins = draw(st.permutations(ins))
                gates.append(Gate(_FLIPPED[g.kind], out + "f", tuple(ins)))
                twins.append((out + "n", out + "f"))
                wires.append(out + "f")
        else:
            kind = draw(st.sampled_from(sorted(_REFERENCE)))
            lo, hi = _REF_ARITY.get(kind, (2, 4))
            ins = draw(st.lists(st.sampled_from(wires), min_size=lo,
                                max_size=hi))
            gates.append(Gate(kind, out, tuple(ins)))
        wires.append(out)
    n = Netlist("twins", tuple(wires[:n_inputs]), (wires[-1],),
                tuple(draw(st.permutations(gates))))
    return n, twins, swapped


@settings(max_examples=200, deadline=None)
@given(_dag_with_twins())
def test_shared_plan_equals_the_unshared_evaluation(case):
    n, twins, swapped = case
    count = 1 << len(n.inputs)
    mask = (1 << count) - 1
    values = {w: sum(((j >> p) & 1) << j for j in range(count)) | ~mask
              for p, w in enumerate(n.inputs)}
    ev = Evaluator(n)
    got = ev.run(values, mask=mask)
    unshared = {w: values[w] & mask for w in n.inputs}
    netlist._evaluate(ev._ops, unshared, mask)
    assert got == unshared
    # a merged op is a BUF of the first of its twins, which is not merged
    rep = {p[2]: p[3][0] for p, o in zip(ev._plan, ev._ops) if p is not o}
    assert rep.keys().isdisjoint(rep.values())
    for first, twin in twins:
        assert rep.get(first, first) == rep.get(twin, twin)
        assert got[first] is got[twin]
    for a, b in swapped:
        assert rep.get(a, a) != rep.get(b, b)


TWINS = ("module twins\ninput x y z\noutput c d\n"
         "and a x y\nand b y x\nor c a z\nor d b z\nend")


def test_a_fault_does_not_reach_a_structural_twin():
    n = parse_netlist(TWINS)
    ev = n.evaluator
    # lane j carries x, y, z = bits 0, 1, 2 of j
    values = {w: sum(((j >> p) & 1) << j for j in range(8))
              for p, w in enumerate(n.inputs)}
    base = ev.run(values, mask=0xFF)
    assert base["a"] is base["b"] and base["c"] is base["d"]
    lane = 3  # x = y = 1, z = 0: a = c = 1
    forced = ev.rerun(base, 0xFF, "a", lane, 0)
    assert forced["a"] == base["a"] ^ (1 << lane)
    assert forced["c"] == base["c"] ^ (1 << lane)
    assert forced["b"] == base["b"] and forced["d"] == base["d"]
