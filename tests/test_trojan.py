import math
from dataclasses import replace

import pytest

from recordkit.bits import Bits
from recordkit.fixtures import fixture_generate
from recordkit.netlist import Gate, parse_netlist
from recordkit.recordize import RecordConfig, transform
from recordkit.rng import RngSpec, rng_bits
from recordkit.sim import Stimulus, simulate
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
    m9, d = _maj9_design()
    gates = list(d.netlist.gates)
    k = next(k for k, g in enumerate(gates) if g.replica == 0)
    g = gates[k]
    gates[k] = Gate(g.kind, g.out, (wire,) + g.ins[1:], g.zone, g.replica)
    bad = replace(d, netlist=replace(d.netlist, gates=tuple(gates)))
    t = simulate(bad, Stimulus.uniform(32, seed=0), RngSpec(0))
    for replica in [None] + list(range(bad.replica_count)):
        with pytest.raises(LeakError, match="partition closure violated"):
            tap(bad, t, replica=replica)


def test_tap_unknown_replica():
    m9, d = _maj9_design()
    t = simulate(d, Stimulus.uniform(8, seed=0), RngSpec(0))
    with pytest.raises(LeakError, match="replica"):
        tap(d, t, replica=5)


def test_mi_identical_alternating():
    a = Bits.from_iterable([i % 2 for i in range(1000)])
    assert mutual_information(a, a) == pytest.approx(1.0)


def test_mi_complement_is_deterministic_bijection():
    a = Bits.from_iterable([i % 2 for i in range(1000)])
    assert mutual_information(a, ~a) == pytest.approx(1.0)


def test_mi_independent_streams_small():
    n = 100000
    a = rng_bits(RngSpec(1), n)
    b = rng_bits(RngSpec(2), n)
    mi = mutual_information(a, b)
    # plug-in bias for a 2x2 table is about 1/(2n ln 2)
    assert mi < 0.01
    assert mi == pytest.approx(1 / (2 * n * math.log(2)), abs=2e-4)


def test_mi_constant_stream_is_zero():
    a = Bits.zeros(100)
    b = rng_bits(RngSpec(3), 100)
    assert mutual_information(a, b) == 0.0


def test_mi_errors():
    with pytest.raises(ValueError, match="length"):
        mutual_information(Bits.zeros(3), Bits.zeros(4))
    with pytest.raises(ValueError, match="empty"):
        mutual_information(Bits.zeros(0), Bits.zeros(0))


def test_mi_symmetry():
    a = rng_bits(RngSpec(5), 4096)
    b = rng_bits(RngSpec(6), 4096) | a
    assert mutual_information(a, b) == pytest.approx(
        mutual_information(b, a))


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
    assert acc == t.stream("__f0_y").accuracy(t.stream("__z_y"))
    assert abs(acc - 0.5) < 3 * 0.5 / math.sqrt(10000)


def test_input_echo_accuracy_half():
    m9, d = _maj9_design(1)
    t = simulate(d, Stimulus.uniform(10000, seed=40), RngSpec(41))
    acc = _scores(leak_report(d, t))["input-echo(__t_x4)"]
    assert acc == t.stream("__t_x4").accuracy(t.stream("x4"))
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


def test_trigger_g1_rate_half():
    m9, d = _maj9_design(1)
    bus = d.replica_input_wires(0)
    watched = tuple(bus[i] for i in d.source_inputs)
    pattern = (1, 0, 1, 0, 1, 0, 1, 0, 1)
    stim = Stimulus.from_vectors([pattern] * 10000)
    stats = trigger_experiment(d, TriggerSpec(watched, pattern), stim,
                               RngSpec(60))
    assert stats.analytic_rate == 0.5  # fires only when r = 0
    sigma = math.sqrt(0.25 / 10000)
    assert abs(stats.rate - 0.5) < 3 * sigma


def test_trigger_g2_rate_quarter():
    m9, d = _maj9_design(2)
    bus = d.replica_input_wires(0)
    watched = tuple(bus[i] for i in d.source_inputs)
    pattern = (1, 1, 0, 0, 1, 1, 0, 0, 1)
    stim = Stimulus.from_vectors([pattern] * 10000)
    stats = trigger_experiment(d, TriggerSpec(watched, pattern), stim,
                               RngSpec(61))
    assert stats.analytic_rate == 0.25
    sigma = math.sqrt(0.25 * 0.75 / 10000)
    assert abs(stats.rate - 0.25) < 3 * sigma


def test_trigger_pattern_outside_orbit_never_fires():
    # watch two same-group wires; a pattern where they disagree with equal
    # inputs is unreachable for any random value
    m9, d = _maj9_design(1)
    bus = d.replica_input_wires(0)
    watched = (bus["x1"], bus["x2"])
    x_rows = [(1, 1, 0, 0, 0, 0, 0, 0, 0)] * 2000
    stats = trigger_experiment(d, TriggerSpec(watched, (1, 0)),
                               Stimulus.from_vectors(x_rows), RngSpec(62))
    assert stats.count == 0
    assert stats.analytic_rate == 0.0


def test_trigger_spec_validation():
    with pytest.raises(ValueError, match="width"):
        TriggerSpec(("a", "b"), (1,))
    with pytest.raises(ValueError, match="0 or 1"):
        TriggerSpec(("a",), (2,))
    m9, d = _maj9_design(1)
    stim = Stimulus.from_vectors([(0,) * 9] * 4)
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
