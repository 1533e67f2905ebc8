from dataclasses import replace

import pytest
import reference_metrics
from hypothesis import given, settings, strategies as st
from reference_readers import from_vectors
from test_netlist import _dag_over_every_kind
from test_recordize import designs

from recordkit.cost import (REFERENCE_RATIOS, _gate_area, area, cost_report,
                            depth, switching)
from recordkit.fixtures import fixture_generate
from recordkit.ftrecord import transform_ft
from recordkit.netlist import _KINDS, parse_netlist
from recordkit.recordize import RecordConfig, transform
from recordkit.rng import RngSpec
from recordkit.sim import SimTrace, Stimulus, simulate, simulate_netlist

INV = parse_netlist("module inv\ninput a\noutput y\nnot y a\nend")
AND2 = parse_netlist("module and2\ninput a b\noutput y\nand y a b\nend")


# kind -> (inputs, area, delay); n-ary kinds are also checked at 3 inputs
WEIGHTS = {
    "NOT": ((1, 2.0, 1.0),),
    "BUF": ((1, 4.0, 0.0),),
    "AND": ((2, 6.0, 1.0), (3, 8.0, 1.0)),
    "OR": ((2, 6.0, 1.0), (3, 8.0, 1.0)),
    "NAND": ((2, 4.0, 1.0), (3, 6.0, 1.0)),
    "NOR": ((2, 4.0, 1.0), (3, 6.0, 1.0)),
    "XOR": ((2, 8.0, 1.0), (3, 16.0, 1.0)),
    "XNOR": ((2, 8.0, 1.0), (3, 16.0, 1.0)),
    "MUX2": ((3, 8.0, 1.0),),
    "CONST0": ((0, 0.0, 0.0),),
    "CONST1": ((0, 0.0, 0.0),),
}


def test_default_weights():
    assert set(WEIGHTS) == set(_KINDS)
    for kind, rows in WEIGHTS.items():
        for arity, want_area, want_delay in rows:
            ins = ["i%d" % k for k in range(arity)]
            text = "module x\n%soutput y\n%s\nend" % (
                "input %s\n" % " ".join(ins) if ins else "",
                " ".join([_KINDS[kind][0], "y"] + ins))
            n = parse_netlist(text)
            assert (area(n), depth(n)) == (want_area, want_delay), \
                (kind, arity)


def test_untrusted_area_exactly_doubles():
    tree = fixture_generate("and-tree-n", n=8)
    d = transform(tree, RecordConfig.checkerboard(tree, 1))
    assert area(d.netlist, zone="untrusted") == 2 * area(tree)


def test_untrusted_area_power_law_all_fixtures():
    for kind, params in (("maj9", {}), ("adder4", {}), ("aes-sbox", {}),
                         ("and-tree-n", {"n": 8})):
        n = fixture_generate(kind, **params)
        for groups in (1, 2):
            d = transform(n, RecordConfig.checkerboard(n, groups))
            assert area(d.netlist, zone="untrusted") == \
                (1 << groups) * area(n), (kind, groups)


def test_depth_single_not():
    assert depth(INV) == 1.0


def test_depth_deltas():
    for kind in ("maj9", "adder4", "aes-sbox"):
        n = fixture_generate(kind)
        base = depth(n)
        d1 = transform(n, RecordConfig.checkerboard(n, 1))
        assert depth(d1.netlist, outputs=d1.encoded_outputs) == base + 3, kind
        d2 = transform(n, RecordConfig.checkerboard(n, 2))
        assert depth(d2.netlist, outputs=d2.encoded_outputs) == base + 4, kind


def _assert_depth_and_area_equal_the_generator_forms(n, outputs):
    for got, want in (
            (depth(n), reference_metrics.depth(n)),
            (depth(n, outputs), reference_metrics.depth(n, outputs)),
            (depth(n, iter(outputs)), reference_metrics.depth(n, outputs)),
            *((area(n, zone), reference_metrics.area(n, zone))
              for zone in (None, "trusted", "untrusted"))):
        assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(_dag_over_every_kind(), st.data())
def test_property_depth_and_area_equal_the_generator_forms(n, data):
    """Random DAGs with CONST gates (no inputs, level 0.0), listed out of
    dependency order, with random zones and output lists."""
    zones = data.draw(st.lists(st.sampled_from(["trusted", "untrusted"]),
                               min_size=len(n.gates), max_size=len(n.gates)))
    n = replace(n, gates=tuple(replace(g, zone=z)
                               for g, z in zip(n.gates, zones)))
    wires = [*n.inputs, *(g.out for g in n.gates)]
    outputs = data.draw(st.lists(st.sampled_from(wires), max_size=4))
    _assert_depth_and_area_equal_the_generator_forms(n, outputs)


@settings(max_examples=40, deadline=None)
@given(designs(), st.booleans())
def test_property_design_depth_and_area_equal_the_generator_forms(case, ft):
    n, cfg = case
    d = (transform_ft(n, cfg).design if ft and cfg.groups == 1
         else transform(n, cfg))
    _assert_depth_and_area_equal_the_generator_forms(d.netlist,
                                                     d.encoded_outputs)


def test_switching_constant_inputs_no_toggles():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    # drive the full transformed netlist, random input pinned constant
    rows = [(1, 0, 1, 0, 1, 0, 1, 0, 1, 0)] * 50
    t = simulate_netlist(d.netlist, from_vectors(rows))
    act = switching(t)
    assert act.total_toggles == 0
    assert act.weighted_activity == 0.0


def test_switching_transformed_exceeds_original():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    stim = Stimulus.uniform(2000, seed=1)
    t_orig = simulate_netlist(m9, stim)
    t_des = simulate(d, stim, RngSpec(2))
    assert switching(t_des).weighted_activity > \
        switching(t_orig).weighted_activity


def _switching_per_gate(t):
    """Reference: one toggle count per gate, no sharing between gates."""
    mask = (1 << (t.cycles - 1)) - 1
    total, weighted = 0, 0.0
    for g in t.netlist.gates:
        s = t.wires[g.out]
        count = ((s ^ (s >> 1)) & mask).bit_count()
        total += count
        weighted += count * _gate_area(g)
    return total, weighted


@pytest.mark.parametrize("unshared", [False, True],
                         ids=["shared", "unshared"])
@pytest.mark.parametrize("kind, groups, cycles, distinct", [
    ("adder4", 2, 2000, (75, 117)),
    ("aes-sbox", 1, 2000, (304, 2120)),
])
def test_switching_matches_per_gate_loop(kind, groups, cycles, distinct,
                                         unshared):
    n = fixture_generate(kind)
    d = transform(n, RecordConfig.checkerboard(n, groups))
    t = simulate(d, Stimulus.uniform(cycles, seed=4), RngSpec(4))
    if unshared:  # identity is only a shortcut: one object per word
        shared = switching(t)
        t = SimTrace(t.netlist, t.cycles,
                     {w: (v << 1) >> 1 for w, v in t.wires.items()})
        assert switching(t) == shared
    streams = [t.wires[g.out] for g in d.netlist.gates]
    assert (len(set(streams)), len(streams)) == distinct
    act = switching(t)
    assert (act.total_toggles, act.weighted_activity) == \
        _switching_per_gate(t)


def test_switching_requires_two_cycles():
    t = simulate_netlist(AND2, from_vectors([(1, 1)]))
    with pytest.raises(ValueError, match="2 cycles"):
        switching(t)


def test_leakage_ratio_bracket_aes_g1():
    sb = fixture_generate("aes-sbox")
    d = transform(sb, RecordConfig.checkerboard(sb, 1))
    ratio = area(d.netlist) / area(sb)
    assert 2.0 <= ratio <= 3.0


def test_area_ratio_bracket_aes_g2():
    sb = fixture_generate("aes-sbox")
    d = transform(sb, RecordConfig.checkerboard(sb, 2))
    ratio = area(d.netlist) / area(sb)
    assert 4.0 <= ratio <= 5.5


def test_subset_ratio_monotone():
    sb = fixture_generate("aes-sbox")
    base = area(sb)
    ratios = []
    for size in (2, 4, 8):
        subset = sb.inputs[:size]
        d = transform(sb, RecordConfig.checkerboard(sb, 1, subset))
        ratios.append(area(d.netlist) / base)
    assert ratios[0] <= ratios[1] <= ratios[2]
    assert ratios[1] < ratios[2]  # 4-of-8 strictly below all-randomized


def test_subset_monotone_all_proxies():
    m9 = fixture_generate("maj9")
    stim = Stimulus.uniform(1000, seed=7)
    base_act = switching(simulate_netlist(m9, stim)).weighted_activity
    prev = (0.0, 0.0, 0.0)
    for size in (3, 6, 9):
        d = transform(m9, RecordConfig.checkerboard(m9, 1, m9.inputs[:size]))
        t = simulate(d, stim, RngSpec(8))
        now = (area(d.netlist) / area(m9),
               depth(d.netlist, outputs=d.encoded_outputs) / depth(m9),
               switching(t).weighted_activity / base_act)
        assert all(a >= b for a, b in zip(now, prev)), size
        prev = now


def test_cost_report_full():
    sb = fixture_generate("aes-sbox")
    d = transform(sb, RecordConfig.checkerboard(sb, 1))
    stim = Stimulus.uniform(500, seed=5)
    t_orig = simulate_netlist(sb, stim)
    t_des = simulate(d, stim, RngSpec(6))
    rep = cost_report(sb, d, (t_orig, t_des))
    assert 2.0 <= rep.area_ratio <= 3.0
    assert rep.untrusted_area_ratio == 2.0
    assert rep.depth_delta == 3.0
    assert rep.activity_ratio > 1.0
    doc = rep.to_json()
    assert doc["ratios"]["leakage"] == rep.area_ratio
    assert doc["paper_reference"] == REFERENCE_RATIOS
    assert set(doc["proxy"]) == {"area", "depth", "activity", "leakage"}
    assert "ratios" in doc and "note" in doc
    assert doc["ratios"]["depth_delta"] == 3.0


@pytest.mark.parametrize("kind, groups", [("maj9", 2), ("aes-sbox", 1)])
def test_cost_report_activity_is_switching_of_each_trace(kind, groups):
    n = fixture_generate(kind)
    d = transform(n, RecordConfig.checkerboard(n, groups))
    stim = Stimulus.uniform(300, seed=9)
    traces = (simulate_netlist(n, stim), simulate(d, stim, RngSpec(9)))
    rep = cost_report(n, d, traces)
    assert (rep.activity_original, rep.activity_transformed) == tuple(
        switching(t).weighted_activity for t in traces)


# (source, the ratios that are undefined): a netlist of constants has no
# area, and xor y a a never toggles
DEGENERATE = [
    ("module c\ninput a\noutput y\nconst0 y\nend",
     {"area", "untrusted_area", "activity", "leakage"}),
    ("module x\ninput a\noutput y\nxor y a a\nend", {"activity"}),
]


@pytest.mark.parametrize("text, undefined", DEGENERATE,
                         ids=["zero-area", "zero-activity"])
def test_undefined_ratio_is_none(text, undefined):
    src = parse_netlist(text)
    d = transform(src, RecordConfig.checkerboard(src, 1))
    stim = Stimulus.uniform(300, seed=4)
    rep = cost_report(src, d, (simulate_netlist(src, stim),
                               simulate(d, stim, RngSpec(5))))
    ratios = rep.to_json()["ratios"]
    assert {k for k, v in ratios.items() if v is None} == undefined
    assert ratios["depth_delta"] == rep.depth_delta
    assert rep.activity_ratio is None


def test_cost_report_stimulus_mismatch():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    t1 = simulate_netlist(m9, Stimulus.uniform(100, seed=1))
    t2 = simulate(d, Stimulus.uniform(100, seed=2), RngSpec(0))
    with pytest.raises(ValueError, match="identical stimulus"):
        cost_report(m9, d, (t1, t2))
    t3 = simulate(d, Stimulus.uniform(50, seed=1), RngSpec(0))
    with pytest.raises(ValueError, match="length"):
        cost_report(m9, d, (t1, t3))
