import os
import random
import tempfile
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_readers
from recordkit import netlist
from recordkit.fixtures import fixture_generate
from recordkit.netlist import Evaluator, evaluate, parse_netlist
from recordkit.recordize import RecordConfig, design_from_netlist, transform
from recordkit.rng import MASK64, RngSpec, packed_bits
from recordkit.sim import (EXHAUSTIVE_BIT_LIMIT, SimulationError, Stimulus,
                           exhaustive_columns, r_columns, simulate,
                           simulate_netlist, verify_equivalence)

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
        x = {w: t.wires[w] >> c & 1 for w in m9.inputs}
        assert t.wires["__z_y"] >> c & 1 == src.run(x)["y"], "cycle %d" % c


def test_simulate_and_design_constant_ones():
    d = transform(AND2, RecordConfig.checkerboard(AND2, 1))
    stim = reference_readers.from_vectors([(1, 1)] * 64)
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
        values = {w: t.wires[w] >> c & 1 for w in t.netlist.inputs}
        full = ev.run(values)
        for w in t.wires:
            assert full[w] == t.wires[w] >> c & 1, (w, c)


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
        assert t.wires["__r1"] >> c & 1 == raw >> 2 * c & 1
        assert t.wires["__r2"] >> c & 1 == raw >> 2 * c + 1 & 1


@pytest.mark.parametrize("width", [1, 2, 9])
@pytest.mark.parametrize("count", [7, 8, 9, 63, 64, 65])
def test_r_columns_bit_c_of_column_i_is_stream_bit_c_width_plus_i(count,
                                                                   width):
    """Counts on and off a multiple of 8 and of 64 cycles, and a width past
    one byte lane."""
    cols = r_columns(RngSpec(21), count, width)
    raw = packed_bits(RngSpec(21), count * width)
    assert len(cols) == width
    for i, col in enumerate(cols):
        assert col >> count == 0, i
        for c in range(count):
            assert col >> c & 1 == raw >> c * width + i & 1, (c, i)


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


@pytest.mark.parametrize("seed", [5, 11])
def test_verify_sampled_reports_the_lowest_failing_sample(seed):
    """Sampled mode draws column p from stream bits p*samples and up; the
    broken decoder fails exactly on the samples whose r is 1."""
    d = transform(AND2, RecordConfig.checkerboard(AND2, 1))
    broken = _break_decoder(d)
    samples = 200
    v = verify_equivalence(AND2, broken, mode="sampled", samples=samples,
                           seed=seed)
    stream = packed_bits(RngSpec(seed), 3 * samples)
    a, b, r = ((stream >> (p * samples)) & ((1 << samples) - 1)
               for p in range(3))
    first = (r & -r).bit_length() - 1
    assert first > 0  # the first sample that fails is not sample 0
    assert (v.cases, v.mode, v.passed) == (samples, "sampled", False)
    cx = v.counterexample
    x = {"a": a >> first & 1, "b": b >> first & 1}
    assert (cx.index, cx.x, cx.r) == (first, x, {"__r1": 1})
    assert cx.expected == {"y": x["a"] & x["b"]}
    assert cx.got == {"y": 1 ^ x["a"] & x["b"]}


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
    stim = reference_readers.from_vectors([(1, 0)])
    with pytest.raises(SimulationError, match="width"):
        stim.bound(3)


def test_stimulus_bad_vector():
    with pytest.raises(ValueError):
        reference_readers.from_vectors([(1, 2)])
    with pytest.raises(ValueError):
        reference_readers.from_vectors([(1, 0), (1,)])
    with pytest.raises(ValueError):
        reference_readers.from_vectors([])


@pytest.mark.parametrize("text, message", [
    ("10\n1x\n", "line 2: stimulus vectors are binary strings"),
    ("10\n1 0\n", "line 2: stimulus vectors are binary strings"),
    ("# w\n1\t1\n", "line 2: stimulus vectors are binary strings"),
    ("10\n1x1\n", "line 2: stimulus vectors are binary strings"),
    ("1\r\n\r\n11 # c\r\n", "line 3: vector has width 2, expected 1"),
    ("# only comments\n\n  \t\n", "empty stimulus"),
    ("", "empty stimulus"),
])
def test_stimulus_file_errors_are_pinned(tmp_path, text, message):
    p = tmp_path / "stim.txt"
    p.write_bytes(text.encode())
    with pytest.raises(ValueError) as e:
        Stimulus.from_file(p)
    assert str(e.value) == message


@pytest.mark.parametrize("rows, message", [
    ([], "empty stimulus"),
    ([(1, 0), (1,)], "row 1 has width 1, expected 2"),
    ([(1, 0), (1, 0), (0, 1, 1)], "row 2 has width 3, expected 2"),
    ([(1, 0), (1, 2)], "stimulus bit must be 0 or 1"),
])
def test_stimulus_vector_errors_are_pinned(rows, message):
    with pytest.raises(ValueError) as e:
        reference_readers.from_vectors(rows)
    assert str(e.value) == message


def test_stimulus_width_mismatch_message():
    with pytest.raises(SimulationError) as e:
        reference_readers.from_vectors([(1, 0)]).bound(3)
    assert str(e.value) == ("stimulus width 2 does not match the 3 design "
                            "inputs")


def _outcome(read, path):
    """A reader's value, or its error's type and text."""
    try:
        return read(path)
    except ValueError as e:
        return type(e), str(e)


def _differs_from_reference(read, reference, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as f:
            f.write(data)
        return _outcome(read, path) != _outcome(reference, path)


@st.composite
def _stimulus_texts(draw):
    """Mostly well-formed vector files, each line possibly commented,
    padded, blank, ended by \r\n, or carrying a bad character or a
    ragged width."""
    width = draw(st.integers(1, 12))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        bits = "".join(draw(st.lists(st.sampled_from("01"),
                                     min_size=width, max_size=width)))
        kind = draw(st.sampled_from(["plain"] * 6 + [
            "comment", "blank", "pad", "bad", "ragged", "junk"]))
        if kind == "comment":
            bits = draw(st.sampled_from(["", bits + " "])) + "# " + draw(
                st.text("01x# \t", max_size=5))
        elif kind == "blank":
            bits = draw(st.text(" \t\u00a0", max_size=3))
        elif kind == "pad":
            bits = draw(st.text(" \t", max_size=2)) + bits + draw(
                st.text(" \t\u00a0", max_size=2))
        elif kind == "bad":
            at = draw(st.integers(0, width))
            bits = bits[:at] + draw(st.sampled_from(
                ["x", "2", " ", "\t", "\u0661", "\u00a0"])) + bits[at:]
        elif kind == "ragged":
            bits = bits[:draw(st.integers(1, width))] + draw(
                st.text("01", max_size=2))
        elif kind == "junk":
            bits = draw(st.text("01 #x\t\r", max_size=8))
        lines.append(bits + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))
    return "".join(lines) + draw(st.sampled_from(["", "1", "0" * width]))


@settings(max_examples=200, deadline=None)
@given(_stimulus_texts())
@example("# c\n\n10101010\n1010101\n")
@example("01\r\n10 # c\r\n\r\n11")
@example("")
def test_stimulus_file_matches_reference_reader(text):
    assert not _differs_from_reference(
        Stimulus.from_file, reference_readers.from_file, text.encode())


def _reference_naming_the_path(path):
    """reference_readers.from_file, with a byte that is not UTF-8 reported
    as every reader now reports it: the path, then the codec's message."""
    try:
        return reference_readers.from_file(path)
    except UnicodeDecodeError as e:
        raise ValueError("%s: %s" % (path, e)) from None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([b"0", b"1", b"\n", b"\r", b"#", b" ",
                                 b"\t", b"x", b"\xff", b"\xc2\xa0"]),
                max_size=40).map(b"".join))
@example(b"01\n\xff")
def test_stimulus_file_matches_reference_on_any_bytes(data):
    assert not _differs_from_reference(
        Stimulus.from_file, _reference_naming_the_path, data)


def test_stimulus_file_peak_memory_is_bounded(tmp_path):
    """2x10^5 rows of 9 inputs: the reader's tracemalloc peak stays within
    16 times the file size."""
    p = tmp_path / "stim.txt"
    rng = random.Random(1)
    p.write_text("".join(format(rng.getrandbits(9), "09b") + "\n"
                         for _ in range(200000)))
    size = p.stat().st_size
    tracemalloc.start()
    try:
        stim = Stimulus.from_file(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stim.count == 200000
    assert peak <= 16 * size, (peak, size)


def test_simulate_netlist_plain():
    m9 = fixture_generate("maj9")
    t = simulate_netlist(m9, Stimulus.uniform(50, seed=9))
    src = Evaluator(m9)
    for c in (0, 13, 49):
        x = {w: t.wires[w] >> c & 1 for w in m9.inputs}
        assert t.wires["y"] >> c & 1 == src.run(x)["y"]


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
