import math
import random

import pytest
import reference_metrics
from hypothesis import given, settings, strategies as st
from reference_readers import from_vectors
from test_recordize import designs

from recordkit import trojan
from recordkit.bits import pack
from recordkit.fixtures import fixture_generate
from recordkit.ftrecord import transform_ft
from recordkit.netlist import Gate, Netlist, NetlistError, parse_netlist
from recordkit.recordize import (PartitionedDesign, RecordConfig,
                                 replica_wire, transform)
from recordkit.rng import RngSpec, packed_bits
from recordkit.sim import SimTrace, Stimulus, simulate
from recordkit.trojan import (LeakError, TriggerSpec, leak_report,
                              mutual_information, tap, trigger_experiment)


def _maj9_design(groups=1):
    m9 = fixture_generate("maj9")
    return m9, transform(m9, RecordConfig.checkerboard(m9, groups))


def test_tap_sees_replica_outputs():
    m9, d = _maj9_design()
    t = simulate(d, Stimulus.uniform(64, seed=0), RngSpec(0))
    lt = tap(d, t)
    assert "__f0_y" in lt and "__f1_y" in lt
    assert "__t_x1" in lt  # boundary wire feeding replica 0


def test_tap_isolation_single_replica():
    m9, d = _maj9_design()
    t = simulate(d, Stimulus.uniform(64, seed=0), RngSpec(0))
    lt = tap(d, t, replica=0)
    assert "__f0_y" in lt
    assert all(not w.startswith("__f1_") for w in lt.wires)


def test_tap_never_contains_random_or_raw_wires():
    for groups in (1, 2):
        m9, d = _maj9_design(groups)
        t = simulate(d, Stimulus.uniform(32, seed=1), RngSpec(1))
        for replica in [None] + list(range(d.replica_count)):
            lt = tap(d, t, replica=replica)
            assert all(not w.startswith("__r") for w in lt.wires)
            assert not set(m9.inputs) & set(lt.wires)  # S = all inputs


@pytest.mark.parametrize("wire", ["__r1", "x1"])
def test_tap_rejects_closure_violation_in_every_view(wire):
    # tap() is never handed such a design: constructing it raises
    m9, d = _maj9_design()
    gates = list(d.netlist.gates)
    k = next(k for k, g in enumerate(gates) if g.replica == 0)
    g = gates[k]
    gates[k] = Gate(g.kind, g.out, (wire,) + g.ins[1:], g.zone, g.replica)
    with pytest.raises(NetlistError) as e:
        PartitionedDesign(Netlist(d.netlist.name, d.netlist.inputs,
                                  d.netlist.outputs, tuple(gates)))
    assert str(e.value).startswith("partition closure violated: ")
    assert "%r reads" % g.out in str(e.value) and repr(wire) in str(e.value)


def test_tap_unknown_replica():
    m9, d = _maj9_design()
    t = simulate(d, Stimulus.uniform(8, seed=0), RngSpec(0))
    with pytest.raises(LeakError, match="replica"):
        tap(d, t, replica=5)


def test_tap_views_every_copy_of_an_ft_design():
    m9 = fixture_generate("maj9")
    ft = transform_ft(m9, RecordConfig.checkerboard(m9, 1))
    t = simulate(ft.design, Stimulus.uniform(256, seed=2), RngSpec(2))
    for k in range(4):
        lt = tap(ft.design, t, replica=k)
        assert replica_wire(k, "y") in lt
        assert all(not w.startswith("__f") or w.startswith("__f%d_" % k)
                   for w in lt.wires)
        report = leak_report(ft.design, t, replica=k)
        assert [s.name for s in report.strategies][0] == (
            "pick-replica(%d,y)" % k)
    full = leak_report(ft.design, t).strategies
    # a twin is its original gate for gate: same stream, same score
    assert [s.accuracy for s in full[:4]] == [full[0].accuracy,
                                              full[1].accuracy] * 2
    for d, copies in ((ft.design, 4), (_maj9_design()[1], 2)):
        with pytest.raises(LeakError) as e:
            tap(d, t, replica=copies)
        assert str(e.value) == "no replica %d in a %d-copy design" % (
            copies, copies)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tap_view_equals_the_per_gate_loop(data):
    """Every view of a transform or an FT transform of a random DAG taps
    exactly the wires the per-gate loop finds, in sorted order, and the
    design's copy counts, untrusted gates and each copy's bus and output
    wires are the ones the verbatim role derivations find."""
    n, cfg = data.draw(designs())
    d = transform(n, cfg)
    if cfg.groups == 1 and data.draw(st.booleans()):
        d = transform_ft(n, cfg).design
    ref = reference_metrics.Design(d.netlist)
    assert d.copy_count == ref.copy_count
    assert d.replica_count == ref.replica_count
    assert list(d.layout.untrusted) == ref.untrusted_gates()
    for k in range(ref.copy_count):
        assert d.layout.buses[k] == ref.replica_input_wires(k)
        for o in ref.source_outputs:
            assert d.layout.copy_outputs[k][o] == \
                ref.replica_output_wire(k, o)
    t = simulate(d, Stimulus.uniform(8, seed=0), RngSpec(0))
    for replica in [None, *range(d.copy_count)]:
        lt = tap(d, t, replica=replica)
        assert list(lt.wires) == sorted(
            reference_metrics.tap_visible(d, replica))
        assert all(v is t.wires[w] for w, v in lt.wires.items())


def _accuracy(guess, truth, n):
    """Fraction of the n cycles in which the two packed words agree."""
    return 1.0 - (guess ^ truth).bit_count() / n


def test_mi_identical_alternating():
    a = pack([0, 1] * 500)
    assert mutual_information(a, a, 1000) == pytest.approx(1.0)


def test_mi_complement_is_deterministic_bijection():
    a = pack([0, 1] * 500)
    assert mutual_information(a, a ^ ((1 << 1000) - 1), 1000) \
        == pytest.approx(1.0)


def test_mi_independent_streams_small():
    n = 100000
    a = packed_bits(RngSpec(1), n)
    b = packed_bits(RngSpec(2), n)
    mi = mutual_information(a, b, n)
    # plug-in bias for a 2x2 table is about 1/(2n ln 2)
    assert mi < 0.01
    assert mi == pytest.approx(1 / (2 * n * math.log(2)), abs=2e-4)


def test_mi_constant_stream_is_zero():
    b = packed_bits(RngSpec(3), 100)
    assert mutual_information(0, b, 100) == 0.0


def test_mi_errors():
    for a, b in ((1 << 3, 0), (0, 0b1111), (-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="does not fit in 3 bits"):
            mutual_information(a, b, 3)
    for n in (0, -1):
        with pytest.raises(ValueError, match="empty"):
            mutual_information(0, 0, n)


def test_mi_symmetry():
    a = packed_bits(RngSpec(5), 4096)
    b = packed_bits(RngSpec(6), 4096) | a
    assert mutual_information(a, b, 4096) == pytest.approx(
        mutual_information(b, a, 4096))


def _assert_mi_counts_equal_the_loop(c11, ca, cb, n):
    got = trojan._mi_counts(c11, ca, cb, n)
    assert repr(got) == repr(reference_metrics.mi_counts(c11, ca, cb, n)), (
        c11, ca, cb, n)


def test_mi_counts_equal_the_four_term_loop_on_small_and_swept_tables():
    # every valid count tuple up to n = 8: zero cells, n = 1, ca, cb in {0, n}
    for n in range(1, 9):
        for ca in range(n + 1):
            for cb in range(n + 1):
                for c11 in range(max(0, ca + cb - n), min(ca, cb) + 1):
                    _assert_mi_counts_equal_the_loop(c11, ca, cb, n)
    # a fixed sweep: swapping the c10 and c01 terms moves 571 of these floats
    rng = random.Random(0)
    for _ in range(20000):
        n = rng.choice((rng.randint(1, 64), rng.randint(1, 1 << 20),
                        rng.randint(1, 1 << 40)))
        ca, cb = rng.randint(0, n), rng.randint(0, n)
        c11 = rng.randint(max(0, ca + cb - n), min(ca, cb))
        _assert_mi_counts_equal_the_loop(c11, ca, cb, n)
    for mi_counts in (trojan._mi_counts, reference_metrics.mi_counts):
        with pytest.raises(ValueError, match="empty"):
            mi_counts(0, 0, 0, 0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_mi_counts_equal_the_four_term_loop(data):
    n = data.draw(st.integers(1, 2 ** 40))
    ca = data.draw(st.sampled_from((0, n)) | st.integers(0, n))
    cb = data.draw(st.sampled_from((0, n)) | st.integers(0, n))
    lo, hi = max(0, ca + cb - n), min(ca, cb)
    c11 = data.draw(st.sampled_from((lo, hi)) | st.integers(lo, hi))
    _assert_mi_counts_equal_the_loop(c11, ca, cb, n)


def test_leak_report_one_time_pad_and_pairs():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(100000, seed=10), RngSpec(20))
    pairs = [("__t_x1", "__t_x2"), ("__t_x3", "__t_x7")]
    rep = leak_report(d, t, pairs)
    for i in m9.inputs:
        assert rep.wire_mi["__t_%s" % i]["input"][i] < 0.01
    for p in rep.pairs:
        assert p.mi > 0.99  # shared random bit cancels in the xor
    doc = rep.to_json()
    assert set(doc) == {"wires", "pairs", "strategies"}
    assert doc["wires"]["__t_x1"]["mi_vs"]["input"]["x1"] < 0.01


def test_leak_report_g2_cross_group_pairs_masked():
    m9, d = _maj9_design(2)
    t = simulate(d, Stimulus.uniform(100000, seed=3), RngSpec(4))
    g = d.config.group_assignment
    cross = [("__t_x1", "__t_x2")]
    same = [("__t_x1", "__t_x3")]
    assert g["x1"] != g["x2"] and g["x1"] == g["x3"]
    rep = leak_report(d, t, cross + same)
    assert rep.pairs[0].mi < 0.01
    assert rep.pairs[1].mi > 0.99


def test_leak_report_untapped_pair():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(100, seed=0), RngSpec(0))
    with pytest.raises(LeakError, match="untapped"):
        leak_report(d, t, [("__t_x1", "__r1")])
    with pytest.raises(LeakError, match="no associated source input"):
        leak_report(d, t, [("__t_x1", "__f0_y")])


def _scores(rep):
    return {s.name: s.accuracy for s in rep.strategies}


def test_pick_replica_accuracy_half_for_self_dual():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(10000, seed=30), RngSpec(31))
    acc = _scores(leak_report(d, t))["pick-replica(0,y)"]
    # replica 0 emits f(x) when r=0 and, by self-duality, not-f(x) when r=1
    assert acc == _accuracy(t.wires["__f0_y"], t.wires["__z_y"], t.cycles)
    assert abs(acc - 0.5) < 3 * 0.5 / math.sqrt(10000)


def test_input_echo_accuracy_half():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(10000, seed=40), RngSpec(41))
    acc = _scores(leak_report(d, t))["input-echo(__t_x4)"]
    assert acc == _accuracy(t.wires["__t_x4"], t.wires["x4"], t.cycles)
    assert abs(acc - 0.5) < 3 * 0.5 / math.sqrt(10000)


def test_gradient_same_group_exact():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(5000, seed=50), RngSpec(51))
    rep = leak_report(d, t, [("__t_x1", "__t_x2")])
    assert _scores(rep)["gradient(__t_x1,__t_x2)"] == 1.0


def test_leak_report_isolated_pair_untapped():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(16, seed=0), RngSpec(0))
    with pytest.raises(LeakError, match="untapped"):
        leak_report(d, t, [("__t_x1", "__tn_x2")], replica=0)


def test_leak_report_isolated_replica_keys_on_its_own_bus():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(4000, seed=72), RngSpec(73))
    rep = leak_report(d, t, [("__tn_x1", "__tn_x2")], replica=1)
    scores = _scores(rep)
    for i in m9.inputs:
        w = d.layout.buses[1][i]
        assert w == "__tn_" + i
        assert scores["input-echo(%s)" % w] == \
            _accuracy(t.wires[w], t.wires[i], t.cycles)
    # x1 and x2 share the group's pad, so the complements cancel it too
    assert scores["gradient(__tn_x1,__tn_x2)"] == 1.0
    truth = t.wires["x1"] ^ t.wires["x2"]
    assert rep.pairs[0].mi == mutual_information(truth, truth, t.cycles)
    assert [s.name for s in rep.strategies][:2] == [
        "pick-replica(1,y)", "input-echo(__tn_x1)"]


def test_leak_report_full_view_pair_on_another_copys_bus():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(4000, seed=72), RngSpec(73))
    assert "__tn_x1" in tap(d, t) and "__tn_x2" in tap(d, t)
    full = leak_report(d, t, [("__tn_x1", "__tn_x2")])
    alone = leak_report(d, t, [("__tn_x1", "__tn_x2")], replica=1)
    assert full.pairs == alone.pairs
    assert _scores(full)["gradient(__tn_x1,__tn_x2)"] == 1.0
    # input-echo stays on replica 0's bus in the full view
    assert {s.name for s in full.strategies
            if s.name.startswith("input-echo")} == {
        "input-echo(__t_%s)" % i for i in m9.inputs}


def _assert_equal_streams_get_equal_separate_rows(lt, rep):
    """Check every wire against the first wire with its stream; return the
    (first, later) pairs so a caller can see duplicates were present."""
    first, dups = {}, []
    for w, v in lt.wires.items():
        u = first.setdefault(v, w)
        if u != w:
            dups.append((u, w))
            assert rep.wire_mi[w] == rep.wire_mi[u]
            assert rep.wire_mi[w] is not rep.wire_mi[u]
            for kind in rep.wire_mi[w]:
                assert rep.wire_mi[w][kind] is not rep.wire_mi[u][kind]
    return dups


@pytest.mark.parametrize("unshared", [False, True],
                         ids=["shared", "unshared"])
def test_leak_report_rows_shared_streams_adder4_g2(unshared):
    a4 = fixture_generate("adder4")
    d = transform(a4, RecordConfig.checkerboard(a4, 2))
    t = simulate(d, Stimulus.uniform(2000, seed=3), RngSpec(3))
    if unshared:  # identity is only a shortcut: one object per word
        shared = leak_report(d, t).to_json()
        t = SimTrace(t.netlist, t.cycles,
                     {w: (v << 1) >> 1 for w, v in t.wires.items()})
        assert leak_report(d, t).to_json() == shared
    lt = tap(d, t)
    assert (len(lt.wires), len(set(lt.wires.values()))) == (92, 60)
    rep = leak_report(d, t)
    n = t.cycles
    for w, kinds in rep.wire_mi.items():
        ws = t.wires[w]
        for i, mi in kinds["input"].items():
            assert mi == mutual_information(ws, t.wires[i], n)
        for o, z in zip(d.source_outputs, d.decoded_outputs):
            assert kinds["output"][o] == mutual_information(ws, t.wires[z], n)
    dups = _assert_equal_streams_get_equal_separate_rows(lt, rep)
    assert len(dups) == 92 - 60
    a, b = dups[0]
    before = {k: dict(v) for k, v in rep.wire_mi[b].items()}
    rep.wire_mi[a]["input"][d.source_inputs[0]] = -1.0
    rep.wire_mi[a]["output"].clear()
    assert rep.wire_mi[b] == before


@pytest.mark.parametrize("view", ["full", "single"])
@pytest.mark.parametrize("groups", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_report_floats_equal_mutual_information(groups, view,
                                                         data):
    n, cfg = data.draw(designs().filter(lambda c: c[1].groups == groups))
    d = transform(n, cfg)
    replica = (None if view == "full"
               else data.draw(st.integers(0, d.replica_count - 1)))
    seed = data.draw(st.integers(0, 2 ** 16))
    # just below, at and above the cycle count where the vector basis starts
    start = trojan._CYCLES_PER_VECTOR << len(d.netlist.inputs)
    cycles = start + data.draw(st.integers(-1, 1) | st.integers(2, start))
    t = simulate(d, Stimulus.uniform(cycles, seed=seed), RngSpec(seed))
    lt = tap(d, t, replica=replica)
    bus = d.layout.buses[replica or 0]
    tapped = [i for i in cfg.randomized_inputs if bus[i] in lt]
    pairs = [(bus[a], bus[b]) for k, a in enumerate(tapped)
             for b in tapped[k + 1:]]
    rep = leak_report(d, t, pairs, replica=replica)
    assert list(rep.wire_mi) == list(lt.wires)
    v, n = t.wires, t.cycles
    for w, kinds in rep.wire_mi.items():
        assert kinds["input"] == {i: mutual_information(v[w], v[i], n)
                                  for i in d.source_inputs}
        assert kinds["output"] == {
            o: mutual_information(v[w], v[z], n)
            for o, z in zip(d.source_outputs, d.decoded_outputs)}
    _assert_equal_streams_get_equal_separate_rows(lt, rep)
    src = {w: i for i, w in bus.items()}
    assert [(p.a, p.b) for p in rep.pairs] == pairs
    for p in rep.pairs:
        assert p.mi == mutual_information(
            v[p.a] ^ v[p.b], v[src[p.a]] ^ v[src[p.b]], n)
    # every attack's accuracy against a per-word oracle, in report order
    oracle = {}
    for k in range(d.replica_count) if replica is None else (replica,):
        for o, z in zip(d.source_outputs, d.decoded_outputs):
            w = d.layout.copy_outputs[k][o]
            if w in lt:
                oracle["pick-replica(%d,%s)" % (k, o)] = \
                    _accuracy(v[w], v[z], n)
    for w in sorted(w for w in src if w in lt):
        oracle["input-echo(%s)" % w] = _accuracy(v[w], v[src[w]], n)
    for a, b in pairs:
        oracle["gradient(%s,%s)" % (a, b)] = _accuracy(
            v[a] ^ v[b], v[src[a]] ^ v[src[b]], n)
    assert [(s.name, s.accuracy) for s in rep.strategies] == \
        list(oracle.items())


@pytest.mark.parametrize("fixture, cycles, vector", [
    ("aes-sbox", 200_000, True), ("maj9", 20_000, False)])
def test_benchmark_traces_take_their_counting_basis(fixture, cycles, vector):
    """perfbench's sbox-leak trace (aes-sbox G=2, 2x10^5 cycles) is counted
    on the vector basis; the README tour's attack (maj9 G=2, 2x10^4
    cycles) on the trace's own words."""
    n = fixture_generate(fixture)
    d = transform(n, RecordConfig.checkerboard(n, 2))
    t = simulate(d, Stimulus.uniform(cycles, seed=0), RngSpec(0))
    words, shifts, planes = trojan._counting_basis(d, t)
    assert (words is not t.wires) == vector
    if not vector:
        assert (shifts, planes) == ((0,), ((1 << cycles) - 1,))


@pytest.mark.parametrize("view", [None, 1], ids=["full", "isolated"])
@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("fixture", ["adder4", "maj9"])
def test_leak_report_same_bytes_on_both_counting_bases(fixture, groups, view,
                                                       monkeypatch):
    n = fixture_generate(fixture)
    d = transform(n, RecordConfig.checkerboard(n, groups))
    t = simulate(d, Stimulus.uniform(3001, seed=11), RngSpec(11))
    bus = d.layout.buses[view or 0]
    s = d.config.randomized_inputs
    pairs = [(bus[a], bus[b]) for k, a in enumerate(s) for b in s[k + 1:]]
    reports = []
    for per_vector in (1 << 30, 1):  # the trace basis, then the vector one
        monkeypatch.setattr(trojan, "_CYCLES_PER_VECTOR", per_vector)
        vector = trojan._counting_basis(d, t)[0] is not t.wires
        assert vector == (per_vector == 1)
        reports.append(leak_report(d, t, pairs, replica=view).to_json())
    assert reports[0] == reports[1]


def test_trigger_g1_rate_half():
    m9, d = _maj9_design(1)
    bus = d.layout.buses[0]
    watched = tuple(bus[i] for i in d.source_inputs)
    pattern = (1, 0, 1, 0, 1, 0, 1, 0, 1)
    stim = from_vectors([pattern] * 10000)
    stats = trigger_experiment(d, TriggerSpec(watched, pattern), stim,
                               RngSpec(60))
    assert stats.analytic_rate == 0.5  # fires only when r = 0
    sigma = math.sqrt(0.25 / 10000)
    assert abs(stats.rate - 0.5) < 3 * sigma


def test_trigger_g2_rate_quarter():
    m9, d = _maj9_design(2)
    bus = d.layout.buses[0]
    watched = tuple(bus[i] for i in d.source_inputs)
    pattern = (1, 1, 0, 0, 1, 1, 0, 0, 1)
    stim = from_vectors([pattern] * 10000)
    stats = trigger_experiment(d, TriggerSpec(watched, pattern), stim,
                               RngSpec(61))
    assert stats.analytic_rate == 0.25
    sigma = math.sqrt(0.25 * 0.75 / 10000)
    assert abs(stats.rate - 0.25) < 3 * sigma


def test_trigger_pattern_outside_orbit_never_fires():
    # watch two same-group wires; a pattern where they disagree with equal
    # inputs is unreachable for any random value
    m9, d = _maj9_design(1)
    bus = d.layout.buses[0]
    watched = (bus["x1"], bus["x2"])
    x_rows = [(1, 1, 0, 0, 0, 0, 0, 0, 0)] * 2000
    stats = trigger_experiment(d, TriggerSpec(watched, (1, 0)),
                               from_vectors(x_rows), RngSpec(62))
    assert stats.count == 0
    assert stats.analytic_rate == 0.0


def test_trigger_spec_validation():
    with pytest.raises(ValueError, match="width"):
        TriggerSpec(("a", "b"), (1,))
    with pytest.raises(ValueError, match="0 or 1"):
        TriggerSpec(("a",), (2,))
    m9, d = _maj9_design(1)
    stim = from_vectors([(0,) * 9] * 4)
    with pytest.raises(LeakError, match="input bus"):
        trigger_experiment(d, TriggerSpec(("__f0_y",), (1,)), stim,
                           RngSpec(0))


def test_leak_report_isolation_mode():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(4000, seed=70), RngSpec(71))
    rep = leak_report(d, t, replica=1)
    assert all(w.startswith(("__f1_", "__tn_")) for w in rep.wire_mi)
    picks = [s for s in rep.strategies if s.name.startswith("pick-replica")]
    assert len(picks) == 1 and picks[0].name == "pick-replica(1,y)"
