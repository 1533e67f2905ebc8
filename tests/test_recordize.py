import random
import re
from dataclasses import FrozenInstanceError, fields, replace
from functools import lru_cache

import pytest
import reference_metrics
from hypothesis import given, settings, strategies as st

from recordkit.cli import main
from recordkit.fixtures import fixture_generate
from recordkit.ftrecord import transform_ft
from recordkit.netlist import (Evaluator, Gate, Netlist, NetlistError,
                               evaluate, parse_netlist, validate,
                               write_netlist)
from recordkit.recordize import (PartitionedDesign, RecordConfig,
                                 design_from_netlist, partition_check,
                                 transform, untrusted_zone_text, user_view)
from recordkit.rng import RngSpec
from recordkit.sim import Stimulus, simulate, verify_equivalence

AND2 = parse_netlist("module and2\ninput a b\noutput y\nand y a b\nend")
INV = parse_netlist("module inv\ninput a\noutput y\nnot y a\nend")
KINDS = ("NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX2")


def brute_force_equivalent(source: Netlist, d: PartitionedDesign) -> bool:
    """Independent oracle: scalar-evaluate both over every (x, r)."""
    ev = Evaluator(d.netlist)
    src = Evaluator(source)
    n_in = len(source.inputs)
    for xv in range(1 << n_in):
        x = {w: (xv >> i) & 1 for i, w in enumerate(source.inputs)}
        want = src.run(x)
        for rv in range(1 << d.config.groups):
            values = dict(x)
            for g, w in enumerate(d.random_wires):
                values[w] = (rv >> g) & 1
            got = ev.run(values)
            for o, z in zip(source.outputs, d.decoded_outputs):
                if got[z] != want[o]:
                    return False
    return True


def test_and2_two_replicas_exhaustive():
    d = transform(AND2, RecordConfig.checkerboard(AND2, 1))
    assert d.replica_count == 2
    replicas = {g.replica for g in d.layout.untrusted}
    assert replicas == {0, 1}
    assert brute_force_equivalent(AND2, d)


def test_encode_wire_value_matches_xor():
    # x = 0, r = 1 gives the encoded t = 1
    d = transform(INV, RecordConfig(("a",), 1, {"a": 1}))
    v = Evaluator(d.netlist).run({"a": 0, "__r1": 1})
    assert v["__t_a"] == 1
    assert v["__tn_a"] == 0


def test_maj9_g2_quadruples_and_stays_equivalent():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    assert d.replica_count == 4
    assert {g.replica for g in d.layout.untrusted} == {0, 1, 2, 3}
    for k in range(4):
        assert sum(g.replica == k
                   for g in d.layout.untrusted) == len(m9.gates)
    assert brute_force_equivalent(m9, d)


def test_replica_gate_counts_match_source():
    for source in (AND2, INV, fixture_generate("adder4")):
        d = transform(source, RecordConfig.checkerboard(source, 1))
        for k in range(d.replica_count):
            assert sum(g.replica == k
                       for g in d.layout.untrusted) == len(source.gates)


def test_transformed_netlist_roundtrips():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    assert parse_netlist(write_netlist(d.netlist)) == d.netlist


def test_design_reconstructs_from_text():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    d2 = design_from_netlist(parse_netlist(write_netlist(d.netlist)))
    assert d2.netlist == d.netlist
    assert d2.random_wires == d.random_wires
    assert d2.encoded_outputs == d.encoded_outputs
    assert d2.decoded_outputs == d.decoded_outputs
    assert d2.source_inputs == d.source_inputs
    assert d2.config.randomized_inputs == d.config.randomized_inputs
    assert d2.config.groups == d.config.groups
    assert d2.config.group_assignment == d.config.group_assignment


def test_partition_check_clean_on_transform_output():
    for groups in (1, 2):
        m9 = fixture_generate("maj9")
        d = transform(m9, RecordConfig.checkerboard(m9, groups))
        partition_check(d)


def _rewire_first_replica_gate(d: PartitionedDesign, new_wire: str
                               ) -> Netlist:
    """d's netlist with its first replica-0 gate reading new_wire first."""
    gates = list(d.netlist.gates)
    for i, g in enumerate(gates):
        if g.zone == "untrusted" and g.replica == 0:
            gates[i] = Gate(g.kind, g.out, (new_wire,) + g.ins[1:],
                            g.zone, g.replica)
            break
    return Netlist(d.netlist.name, d.netlist.inputs, d.netlist.outputs,
                   tuple(gates))


# an untrusted read of each random wire of a G=2 design, not only __r1
@pytest.mark.parametrize("groups, wire, reason", [
    (1, "__r1", "random wire"),
    (2, "__r2", "random wire"),
    (1, "x1", "raw randomized input"),
], ids=["__r1", "__r2", "x1"])
def test_partition_check_flags_untrusted_read(groups, wire, reason):
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, groups))
    with pytest.raises(NetlistError) as e:
        replace(d, netlist=_rewire_first_replica_gate(d, wire))
    assert str(e.value) == ("partition closure violated: '__f0_t0' reads "
                            "%s %r" % (reason, wire))


def test_user_view_and2():
    d = transform(AND2, RecordConfig.checkerboard(AND2, 1))
    uv = user_view(d)
    assert uv.inputs == ("a", "b", "__r1")
    assert uv.outputs == ("__z_y",)
    for av in (0, 1):
        for bv in (0, 1):
            for rv in (0, 1):
                out = evaluate(uv, {"a": av, "b": bv, "__r1": rv})
                assert out["__z_y"] == (av & bv)


def test_user_view_inverter():
    d = transform(INV, RecordConfig(("a",), 1, {"a": 1}))
    uv = user_view(d)
    for rv in (0, 1):
        assert evaluate(uv, {"a": 1, "__r1": rv})["__z_y"] == 0


def test_user_view_maj9_g2():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    uv = user_view(d)
    assert len(uv.inputs) == 11
    rng = random.Random(5)
    for _ in range(64):
        x = {w: rng.randint(0, 1) for w in m9.inputs}
        want = evaluate(m9, x)["y"]
        values = dict(x)
        values["__r1"] = rng.randint(0, 1)
        values["__r2"] = rng.randint(0, 1)
        assert evaluate(uv, values)["__z_y"] == want


def test_subset_inputs_pass_through_unmodified():
    m9 = fixture_generate("maj9")
    subset = ("x1", "x2", "x3", "x4")
    d = transform(m9, RecordConfig.checkerboard(m9, 1, subset))
    # non-randomized inputs feed the replicas by wire identity
    for k in range(2):
        wires = d.layout.buses[k]
        for i in m9.inputs:
            if i in subset:
                assert wires[i].startswith("__t")
            else:
                assert wires[i] == i
    raw_reads = {w for g in d.layout.untrusted for w in g.ins
                 if not w.startswith("__")}
    assert raw_reads == set(m9.inputs) - set(subset)
    assert brute_force_equivalent(m9, d)
    partition_check(d)


def test_self_dual_shortcut_per_cycle():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    t = simulate(d, Stimulus.uniform(2000, seed=11), RngSpec(3))
    r0 = t.wires[d.layout.copy_outputs[0]["y"]]
    r1 = t.wires[d.layout.copy_outputs[1]["y"]]
    assert r1 == r0 ^ ((1 << t.cycles) - 1)


def test_rekey_leaves_untrusted_zone_untouched():
    """A new stream is a simulation argument: running a design under two
    streams leaves its netlist, and so its untrusted zone, as it was."""
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    zone = untrusted_zone_text(d)
    stim = Stimulus.uniform(50, seed=4)
    for seed in (0, 7):
        assert simulate(d, stim, RngSpec(seed)).netlist is d.netlist
    assert untrusted_zone_text(d) == zone


def test_rekey_same_decode_different_leak():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    stim = Stimulus.uniform(500, seed=4)
    t1 = simulate(d, stim, RngSpec(0))
    t2 = simulate(d, stim, RngSpec(99))
    assert t1.wires["__z_y"] == t2.wires["__z_y"]
    assert t1.wires["__t_x1"] != t2.wires["__t_x1"]


def test_reserved_name_collision_rejected():
    bad = Netlist("m", ("__t_a",), ("y",),
                  (Gate("NOT", "y", ("__t_a",)),))
    validate(bad)
    with pytest.raises(NetlistError, match="reserved"):
        transform(bad, RecordConfig(("__t_a",), 1, {"__t_a": 1}))


def test_empty_subset_rejected():
    with pytest.raises(ValueError, match="empty"):
        transform(AND2, RecordConfig((), 1, {}))


def test_config_validation():
    with pytest.raises(ValueError, match="not an input"):
        RecordConfig(("zz",), 1, {"zz": 1}).validate(AND2)
    with pytest.raises(ValueError, match="cover exactly"):
        RecordConfig(("a", "b"), 1, {"a": 1}).validate(AND2)
    with pytest.raises(ValueError, match="valid range"):
        RecordConfig(("a", "b"), 1, {"a": 1, "b": 2}).validate(AND2)
    with pytest.raises(ValueError, match="no inputs"):
        RecordConfig(("a",), 2, {"a": 1}).validate(AND2)
    with pytest.raises(ValueError, match="at least one"):
        RecordConfig(("a",), 0, {"a": 1}).validate(AND2)


@pytest.mark.parametrize("groups", [0, -1])
def test_checkerboard_rejects_fewer_than_one_group(groups):
    """checkerboard raises validate's message before it assigns a group."""
    with pytest.raises(ValueError) as e:
        RecordConfig.checkerboard(AND2, groups)
    assert str(e.value) == "need at least one random-bit group"


@pytest.mark.parametrize("groups, subset, message", [
    (3, None, "group 3 has no inputs"),
    (2, ["a"], "group 2 has no inputs"),
    (1, ["a", "a"], "randomized input 'a' listed twice"),
    (1, [], "randomized input subset is empty"),
])
def test_checkerboard_raises_validate_message_at_the_call(groups, subset,
                                                          message):
    """checkerboard returns only configs that transform accepts."""
    with pytest.raises(ValueError) as e:
        RecordConfig.checkerboard(AND2, groups, subset)
    assert str(e.value) == message


def test_config_json_roundtrip():
    m9 = fixture_generate("maj9")
    cfg = RecordConfig.checkerboard(m9, 2)
    doc = cfg.to_json()
    assert doc["groups"] == 2
    assert doc["subset"] == list(m9.inputs)
    # alternating assignment by input position
    assert doc["assignment"]["x1"] == 1 and doc["assignment"]["x2"] == 2
    # the config is read back off the netlist's __t_ encoders
    text = write_netlist(transform(m9, cfg).netlist)
    back = design_from_netlist(parse_netlist(text)).config
    assert back.to_json() == doc
    assert back.randomized_inputs == cfg.randomized_inputs
    assert back.group_assignment == cfg.group_assignment


def test_passthrough_output_supported():
    n = parse_netlist("module m\ninput a b\noutput a y\nand y a b\nend")
    d = transform(n, RecordConfig.checkerboard(n, 1))
    assert brute_force_equivalent(n, d)
    partition_check(d)


def _random_dag(rng: random.Random, n_inputs: int, n_gates: int) -> Netlist:
    inputs = tuple("i%d" % k for k in range(n_inputs))
    wires = list(inputs)
    gates = []
    for k in range(n_gates):
        kind = rng.choice(KINDS)
        arity = {"NOT": 1, "BUF": 1, "MUX2": 3}.get(kind, 2)
        ins = tuple(rng.choice(wires) for _ in range(arity))
        out = "w%d" % k
        gates.append(Gate(kind, out, ins))
        wires.append(out)
    outputs = tuple({rng.choice(wires[n_inputs:] or wires)})
    return Netlist("rand", inputs, outputs, tuple(gates))


def test_property_random_netlists_closure_and_equivalence():
    rng = random.Random(99)
    for trial in range(30):
        n = _random_dag(rng, rng.randint(1, 4), rng.randint(1, 12))
        groups = rng.choice((1, 1, 2))
        if groups > len(n.inputs):
            groups = 1
        size = rng.randint(max(1, groups), len(n.inputs))
        subset = tuple(sorted(rng.sample(list(n.inputs), size)))
        pos = {w: i for i, w in enumerate(n.inputs)}
        assignment = {w: (pos[w] % groups) + 1 for w in subset}
        used = set(assignment.values())
        if used != set(range(1, groups + 1)):
            groups = 1
            assignment = {w: 1 for w in subset}
        d = transform(n, RecordConfig(subset, groups, assignment))
        partition_check(d)
        assert brute_force_equivalent(n, d), "trial %d" % trial


@st.composite
def designs(draw):
    """A random small DAG (at most 10 inputs) and a valid configuration."""
    inputs = tuple("i%d" % k for k in range(draw(st.integers(1, 10))))
    wires = list(inputs)
    gates = []
    for k in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(KINDS))
        arity = {"NOT": 1, "BUF": 1, "MUX2": 3}.get(kind, 2)
        ins = tuple(draw(st.sampled_from(wires)) for _ in range(arity))
        gates.append(Gate(kind, "w%d" % k, ins))
        wires.append("w%d" % k)
    outputs = tuple(draw(st.lists(st.sampled_from(wires), min_size=1,
                                  max_size=3, unique=True)))
    n = Netlist("rand", inputs, outputs, tuple(gates))
    chosen = draw(st.sets(st.sampled_from(inputs), min_size=1))
    subset = tuple(w for w in inputs if w in chosen)
    groups = draw(st.integers(1, min(2, len(subset))))
    order = draw(st.permutations(subset))
    assignment = {w: (k % groups) + 1 for k, w in enumerate(order)}
    return n, RecordConfig(subset, groups, assignment)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_property_roundtrip_closure_equivalence(case):
    n, cfg = case
    d = transform(n, cfg)
    back = design_from_netlist(parse_netlist(write_netlist(d.netlist)))
    assert back == d
    assert d.config == cfg
    assert back.config == cfg
    partition_check(d)
    assert verify_equivalence(n, d, mode="exhaustive").passed


@pytest.mark.parametrize("kind, params", [("maj9", {}), ("adder4", {}),
                                          ("and-tree-n", {"n": 5})])
def test_ft_design_roundtrips_through_text(kind, params):
    n = fixture_generate(kind, **params)
    ft = transform_ft(n, RecordConfig.checkerboard(n, 1))
    assert ft.design.config == RecordConfig.checkerboard(n, 1)
    text = write_netlist(ft.design.netlist)
    assert design_from_netlist(parse_netlist(text)) == ft.design


def _maj9_g1_text() -> str:
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    return write_netlist(d.netlist)


# Each edit of a transformed maj9 G=1 text breaks one reserved-name rule
# that a design must satisfy when it is constructed.
STRUCTURAL_EDITS = [
    (lambda t: t.replace("__r1", "__r2"),
     "random inputs must be __r1..__rG"),
    (lambda t: write_netlist(fixture_generate("maj9")), "no __r inputs"),
    (lambda t: t.replace("output __y_y __z_y", "output __y_y"),
     "outputs must pair __y_<o> with __z_<o>"),
    (lambda t: t.replace("__z_y", "__z_q"), "names disagree"),
    (lambda t: t.replace("xor __t_x1 ", "xnor __t_x1 "),
     "unrecognized encode gate"),
    (lambda t: t.replace("attr __f1_t0 replica 1", "attr __f1_t0 replica 3"),
     "expected replica indices"),
    (lambda t: t.replace(" __r1\n", " __r1 __r2\n", 1),
     "group 2 has no inputs"),
    (lambda t: t.replace("and __f0_t1 __t_x1 ", "and __f0_t1 __r1 "),
     "partition closure violated: '__f0_t1' reads random wire '__r1'"),
    # two broken rules: the naming rule is checked before the closure rule
    # and before the cross-copy rule, though a later gate breaks it
    (lambda t: t.replace("and __f0_t1 __t_x1 ", "and __f0_t1 __r1 ").replace(
        "attr __f1_t5 replica 1", "attr __f1_t5 replica 0"),
     "line 418: untrusted gate '__f1_t5' has replica 0 but is not named "
     "__f0_..."),
    (lambda t: t.replace("and __f0_t1 __t_x1 ", "and __f0_t1 __f1_t0 "
                         ).replace("attr __f1_t6 replica 1",
                                   "attr __f1_t6 replica 0"),
     "line 421: untrusted gate '__f1_t6' has replica 0 but is not named "
     "__f0_..."),
    # a trusted gate named as a copy and a misnamed untrusted gate: the one
    # earlier in netlist order is named, whichever zone it is in
    (lambda t: t.replace("attr __f1_t1 zone untrusted\n", "").replace(
        "attr __f1_t5 replica 1", "attr __f1_t5 replica 0"),
     "line 406: copy gate '__f1_t1' is not untrusted"),
    (lambda t: t.replace("attr __f0_t2 replica 0", "attr __f0_t2 replica 1"
                         ).replace("attr __f1_t5 zone untrusted\n", ""),
     "line 28: untrusted gate '__f0_t2' has replica 1 but is not named "
     "__f1_..."),
    # the config is read off an encode gate in either zone
    (lambda t: t.replace("xor __t_x1 x1 __r1\n",
                         "xnor __t_x1 x1 __r1\nattr __t_x1 zone untrusted\n"),
     "unrecognized encode gate for input 'x1'"),
]


@pytest.mark.parametrize("edit, message", STRUCTURAL_EDITS)
def test_structural_rejections(tmp_path, capsys, edit, message):
    text = edit(_maj9_g1_text())
    n = parse_netlist(text)
    with pytest.raises(NetlistError, match=re.escape(message)):
        design_from_netlist(n)
    with pytest.raises(NetlistError, match=re.escape(message)):
        PartitionedDesign(n)
    path = tmp_path / "edited.nl"
    path.write_text(text)
    capsys.readouterr()
    assert main(["simulate", str(path), "--cycles", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


# An encode gate is x xor its pad, no more and no less; its complement is
# x xnor the same pad, and is named with its line.
@pytest.mark.parametrize("old, new, message", [
    ("xor __t_x1 x1 __r1\n", "xor __t_x1 x1 __r1 x2\n",
     "unrecognized encode gate for input 'x1'"),
    ("xor __t_x1 x1 __r1\n", "xor __t_x1 x2 __r1\n",
     "unrecognized encode gate for input 'x1'"),
    ("xnor __tn_x1 x1 __r1\n", "buf __tn_x1 x1\n",
     "line 5: unrecognized complemented encode gate '__tn_x1'"),
    ("xnor __tn_x1 x1 __r1\n", "xnor __tn_x1 x1 x2\n",
     "line 5: unrecognized complemented encode gate '__tn_x1'"),
    ("xnor __tn_x1 x1 __r1\n", "xor __tn_x1 x1 __r1\n",
     "line 5: unrecognized complemented encode gate '__tn_x1'"),
    ("xnor __tn_x1 x1 __r1\n", "xnor __tn_x1 x1 __r1\nxnor __tn_q x1 __r1\n",
     "line 6: unrecognized complemented encode gate '__tn_q'"),
    ("xor __t_x1 x1 __r1\n", "xor __t_x1 x1 __r1\nxor __t_q x1 x2\n",
     "line 5: unrecognized encode gate '__t_q'"),
], ids=["t-three-inputs", "t-other-input", "tn-unpadded", "tn-other-input",
        "tn-xor", "tn-no-twin", "t-no-input"])
def test_encoder_off_its_pad_is_rejected(old, new, message):
    text = _maj9_g1_text()
    assert text.count(old) == 1
    with pytest.raises(NetlistError) as e:
        design_from_netlist(parse_netlist(text.replace(old, new)))
    assert str(e.value) == message


def test_config_is_read_off_the_netlist_not_stored():
    assert [f.name for f in fields(PartitionedDesign)] == ["netlist"]
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    with pytest.raises(TypeError):
        replace(d, config=RecordConfig(("x1",), 1, {"x1": 1}))
    with pytest.raises(TypeError):
        replace(d, rng=RngSpec(5))
    assert replace(d).config == d.config


def test_no_violating_design_can_be_constructed():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    n = _rewire_first_replica_gate(d, "x2")
    message = ("partition closure violated: '__f0_t0' reads raw randomized "
               "input 'x2'")
    for build in (lambda: replace(d, netlist=n), lambda: PartitionedDesign(n),
                  lambda: design_from_netlist(n)):
        with pytest.raises(NetlistError) as e:
            build()
        assert str(e.value) == message
    with pytest.raises(FrozenInstanceError):
        d.netlist = n


def test_config_is_frozen_and_its_grouping_read_only():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    with pytest.raises(TypeError):
        d.config.group_assignment["x1"] = 2
    with pytest.raises(FrozenInstanceError):
        d.config.groups = 1
    with pytest.raises(FrozenInstanceError):
        d.config.group_assignment = {"x1": 2}
    assert d.layout.buses[1]["x1"] == "__tn_x1"
    assert d.config == PartitionedDesign(d.netlist).config
    plain = {"x1": 1}
    cfg = RecordConfig(("x1",), 1, plain)
    plain["x1"] = 2
    assert cfg.group_assignment == {"x1": 1}
    assert cfg.to_json() == {"subset": ["x1"], "groups": 1,
                             "assignment": {"x1": 1}}


# Edits of a design's text: replace or insert a reserved or fixture token,
# insert a line of such tokens, or delete a line.
EDIT_TOKENS = (
    "__r1", "__r2", "__r3", "__t_x1", "__tn_x1", "__t_a0", "__tn_b0",
    "__f0_y", "__f1_y", "__f3_y", "__f0_s0", "__f1_s0", "__f2_c2",
    "__y_y", "__z_y", "__y_s0", "__z_s0", "__m_y", "__mt_y", "__e",
    "x1", "x5", "a0", "b3", "y", "s0", "cout", "module", "input", "output",
    "attr", "zone", "trusted", "untrusted", "replica", "xor", "xnor", "and",
    "or", "not", "buf", "mux2", "end", "0", "1", "2", "3")


def edit_text(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        words = lines[i].split()
        kind = rng.randrange(4)
        if kind == 0 and words:
            words[rng.randrange(len(words))] = rng.choice(EDIT_TOKENS)
            lines[i] = " ".join(words)
        elif kind == 1:
            words.insert(rng.randint(0, len(words)), rng.choice(EDIT_TOKENS))
            lines[i] = " ".join(words)
        elif kind == 2:
            lines.insert(i, " ".join(rng.choice(EDIT_TOKENS)
                                     for _ in range(rng.randint(1, 4))))
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


def _assert_copy_rules(d: PartitionedDesign) -> None:
    """A gate is untrusted exactly when it is named __f<k>_ and carries
    replica k, and no copy reads a wire that another copy drives."""
    copy_of = {}
    for g in d.netlist.gates:
        m = re.fullmatch(r"__f(\d+)_.*", g.out)
        tagged = m is not None and g.replica == int(m.group(1))
        assert (g.zone == "untrusted") == tagged, g
        if tagged:
            copy_of[g.out] = g.replica
    for g in d.netlist.gates:
        if g.out in copy_of:
            assert all(copy_of.get(w, g.replica) == g.replica
                       for w in g.ins), g


@lru_cache(maxsize=None)
def _design_text(fixture: str, groups) -> str:
    """The transform's text at G=groups, or transform_ft's for "ft"."""
    n = fixture_generate(fixture)
    if groups == "ft":
        d = transform_ft(n, RecordConfig.checkerboard(n, 1)).design
    else:
        d = transform(n, RecordConfig.checkerboard(n, groups))
    text = write_netlist(d.netlist)
    _assert_copy_rules(design_from_netlist(parse_netlist(text)))
    return text


@pytest.mark.parametrize("fixture, groups", [
    ("adder4", 1), ("adder4", 2), ("maj9", 1), ("maj9", 2), ("maj9", "ft")])
@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_edited_design_text_is_a_design_or_a_netlist_error(
        tmp_path_factory, fixture, groups, rng):
    text = edit_text(_design_text(fixture, groups), rng)
    try:
        n = parse_netlist(text)
    except NetlistError:
        n = None
    try:
        d = design_from_netlist(n) if n is not None else None
    except NetlistError as e:
        d = None
        # rejected with the verbatim checks' first message and line
        with pytest.raises(NetlistError) as ref:
            reference_metrics.Design(n)
        assert (str(ref.value), ref.value.line) == (str(e), e.line)
    else:
        if n is not None:  # accepted exactly when the verbatim checks accept
            reference_metrics.Design(n)
    # `check` accepts exactly the texts the design commands accept
    path = tmp_path_factory.getbasetemp() / "edited.nl"
    path.write_text(text)
    assert (main(["check", str(path)]) == 0) == (d is not None)
    if d is not None:
        assert isinstance(d, PartitionedDesign)
        _assert_copy_rules(d)
