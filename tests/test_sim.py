import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from recordkit import netlist
from recordkit.fixtures import fixture_generate
from recordkit.netlist import Evaluator, evaluate, parse_netlist
from recordkit.recordize import RecordConfig, design_from_netlist, transform
from recordkit.rng import MASK64, RngSpec, packed_bits
from recordkit.sim import (EXHAUSTIVE_BIT_LIMIT, SimulationError, Stimulus,
                           exhaustive_columns, simulate, simulate_netlist,
                           verify_equivalence)

AND2 = parse_netlist("module and2\ninput a b\noutput y\nand y a b\nend")

# Reference value for the seed-0 stream, cross-checked against an
# independent implementation of the same mixer.
SPLITMIX_SEED0_WORD0 = 0xE220A8397B1DCDAF


def words(spec):
    """Scalar SplitMix64 oracle: the stream one 64-bit word at a time."""
    state = spec.seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def oracle_bits(spec, n):
    """First n stream bits from the scalar oracle, bit i at position i."""
    data = b"".join(w.to_bytes(8, "little")
                    for w in islice(words(spec), (n + 63) // 64))
    return int.from_bytes(data, "little") & ((1 << n) - 1)


# Every length up to 300 bits, and one bit either side of 2^k - 1, 2^k and
# 2^k + 1 words: odd and even word counts across every doubling boundary.
ORACLE_LENGTHS = sorted(set(range(301)) | {
    64 * (2 ** k + d) + e for k in range(11) for d in (-1, 0, 1)
    for e in (-1, 0, 1) if 2 ** k + d > 0})


@pytest.mark.parametrize("seed", [0, 1, 1 << 63, MASK64])
def test_packed_bits_matches_scalar_oracle(seed):
    spec = RngSpec(seed)
    ref = oracle_bits(spec, ORACLE_LENGTHS[-1])
    for n in ORACLE_LENGTHS:
        assert packed_bits(spec, n) == ref & ((1 << n) - 1), n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, MASK64), st.integers(0, 5000))
def test_packed_bits_matches_scalar_oracle_at_any_seed(seed, n):
    assert packed_bits(RngSpec(seed), n) == oracle_bits(RngSpec(seed), n)


def test_rng_reference_vector():
    word = packed_bits(RngSpec(0), 64)
    assert word == SPLITMIX_SEED0_WORD0
    assert word & 1 == 1  # LSB-first consumption


def test_rng_empty_and_determinism():
    assert packed_bits(RngSpec(42), 0) == 0
    assert packed_bits(RngSpec(42), 1000) == packed_bits(RngSpec(42), 1000)
    assert packed_bits(RngSpec(42), 100) != packed_bits(RngSpec(43), 100)


def test_rng_seed_range():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(1 << 64)
    RngSpec((1 << 64) - 1)


def test_simulate_decodes_to_source_function():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    t = simulate(d, Stimulus.uniform(100, seed=8), RngSpec(2))
    src = Evaluator(m9)
    for c in range(t.cycles):
        x = {w: t.value(w, c) for w in m9.inputs}
        assert t.value("__z_y", c) == src.run(x)["y"], "cycle %d" % c


def test_simulate_and_design_constant_ones():
    d = transform(AND2, RecordConfig.checkerboard(AND2, 1))
    stim = Stimulus.from_vectors([(1, 1)] * 64)
    t = simulate(d, stim, RngSpec(5))
    assert t.wires["__z_y"].bit_count() == 64


def test_simulate_deterministic():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    stim = Stimulus.uniform(300, seed=1)
    t1 = simulate(d, stim, RngSpec(9))
    t2 = simulate(d, stim, RngSpec(9))
    assert t1.wires == t2.wires


def test_structurally_equal_gates_share_one_word_in_the_trace():
    # the naive sum of products repeats each minterm AND per output bit:
    # of 4216 gates over 10 primary inputs, 1124 differ in their inputs,
    # and 344 once not(xnor(x, r)) counts as xor(x, r), so that a minterm
    # over one copy's literals is the same gate as one in another copy
    n = fixture_generate("aes-sbox")
    d = transform(n, RecordConfig.checkerboard(n, 2))
    t = simulate(d, Stimulus.uniform(4096, seed=1), RngSpec(2))
    assert len(t.wires) == 4226
    assert len({id(v) for v in t.wires.values()}) <= 344 + 10
    assert t.wires["__f0_t0_2b"] is t.wires["__f0_t4_2b"]
    assert t.wires["__f1_nx7"] is t.wires["__t_x7"]
    assert t.wires["__f1_t7_55"] is t.wires["__f0_t4_ff"]
    unshared = {w: t.wires[w] for w in d.netlist.inputs}
    netlist._evaluate(d.netlist.evaluator._ops, unshared, (1 << 4096) - 1)
    assert t.wires == unshared


def test_trace_values_rederivable_by_evaluate():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    t = simulate(d, Stimulus.uniform(400, seed=2), RngSpec(7))
    ev = Evaluator(d.netlist)
    rng = random.Random(0)
    cycles = rng.sample(range(t.cycles), max(4, t.cycles // 100))
    for c in cycles:
        values = {w: t.value(w, c) for w in t.netlist.inputs}
        full = ev.run(values)
        for w in t.wires:
            assert full[w] == t.value(w, c), (w, c)


def test_r_frequency_near_half():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    t = simulate(d, Stimulus.uniform(10000, seed=6), RngSpec(0))
    assert 0.47 <= t.wires["__r1"].bit_count() / 10000 <= 0.53


def test_r_bits_fresh_per_cycle_group_order():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    t = simulate(d, Stimulus.uniform(32, seed=3), RngSpec(12))
    raw = packed_bits(RngSpec(12), 64)
    for c in range(32):
        assert t.value("__r1", c) == raw >> 2 * c & 1
        assert t.value("__r2", c) == raw >> 2 * c + 1 & 1


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_exhaustive_columns_lane_j_is_vector_j(k):
    cols = exhaustive_columns(k)
    assert len(cols) == k
    for j in range(1 << k):
        assert [(c >> j) & 1 for c in cols] == [(j >> p) & 1
                                                for p in range(k)]
    assert all(c < 1 << (1 << k) for c in cols)


def test_verify_and2_exhaustive():
    d = transform(AND2, RecordConfig.checkerboard(AND2, 1))
    v = verify_equivalence(AND2, d)
    assert v.passed and v.cases == 8


def test_verify_aes_sbox_g1():
    sb = fixture_generate("aes-sbox")
    d = transform(sb, RecordConfig.checkerboard(sb, 1))
    v = verify_equivalence(sb, d)
    assert v.passed and v.cases == 512


def _break_decoder(d):
    from recordkit.netlist import write_netlist
    text = write_netlist(d.netlist).replace("xor __z_y __y_y __r1",
                                            "buf __z_y __y_y")
    return design_from_netlist(parse_netlist(text))


def test_verify_catches_missing_decoder():
    broken = _break_decoder(transform(AND2, RecordConfig.checkerboard(AND2, 1)))
    v = verify_equivalence(AND2, broken)
    assert not v.passed
    cx = v.counterexample
    assert cx.r == {"__r1": 1}  # broken decode shows up exactly when r is 1
    assert cx.expected != cx.got


def test_verify_counterexample_is_first_in_order():
    broken = _break_decoder(transform(AND2, RecordConfig.checkerboard(AND2, 1)))
    v = verify_equivalence(AND2, broken)
    # enumeration order: a is bit 0, b bit 1, r bit 2; first failure at r=1
    assert v.counterexample.index == 4


def test_verify_exhaustive_bound():
    big = fixture_generate("and-tree-n", n=EXHAUSTIVE_BIT_LIMIT)
    d = transform(big, RecordConfig.checkerboard(big, 1))
    with pytest.raises(ValueError, match="sampled"):
        verify_equivalence(big, d, mode="exhaustive")
    v = verify_equivalence(big, d, mode="sampled", samples=500, seed=1)
    assert v.passed and v.cases == 500


def test_verify_input_mismatch():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    with pytest.raises(ValueError, match="source inputs"):
        verify_equivalence(AND2, d)


def test_stimulus_file_roundtrip(tmp_path):
    p = tmp_path / "stim.txt"
    p.write_text("# two cycles\n10\n01  # comment\n\n11\n")
    stim = Stimulus.from_file(p)
    assert stim.count == 3 and len(stim.columns) == 2
    count, cols = stim.bound(2)
    # first char of each line = first declared input
    assert cols[0] == 0b101  # cycles 0,2 set
    assert cols[1] == 0b110


def test_stimulus_file_short_row_names_its_line(tmp_path):
    p = tmp_path / "stim.txt"
    p.write_text("# c\n\n10101010\n1010101\n")
    with pytest.raises(ValueError,
                       match=r"^line 4: vector has width 7, expected 8$"):
        Stimulus.from_file(p)


def test_stimulus_width_mismatch():
    stim = Stimulus.from_vectors([(1, 0)])
    with pytest.raises(SimulationError, match="width"):
        stim.bound(3)


def test_stimulus_bad_vector():
    with pytest.raises(ValueError):
        Stimulus.from_vectors([(1, 2)])
    with pytest.raises(ValueError):
        Stimulus.from_vectors([(1, 0), (1,)])
    with pytest.raises(ValueError):
        Stimulus.from_vectors([])


def test_simulate_netlist_plain():
    m9 = fixture_generate("maj9")
    t = simulate_netlist(m9, Stimulus.uniform(50, seed=9))
    src = Evaluator(m9)
    for c in (0, 13, 49):
        x = {w: t.value(w, c) for w in m9.inputs}
        assert t.value("y", c) == src.run(x)["y"]


def test_trace_csv_and_summary(tmp_path):
    d = transform(AND2, RecordConfig.checkerboard(AND2, 1))
    t = simulate(d, Stimulus.uniform(4, seed=0), RngSpec(0))
    out = tmp_path / "trace.csv"
    t.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "cycle,wire,value"
    assert len(lines) == 1 + 4 * len(t.wires)
    doc = t.summary()
    assert doc["cycles"] == 4
    assert set(doc["output_ones"]) == {"__y_y", "__z_y"}
