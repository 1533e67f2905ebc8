import os
import random
import tempfile
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_readers
from recordkit import netlist, sim
from recordkit.cost import cost_report
from recordkit.fixtures import fixture_generate
from recordkit.ftrecord import ft_simulate, transform_ft
from recordkit.netlist import (Evaluator, Gate, Netlist, evaluate,
                               parse_netlist, write_netlist)
from recordkit.recordize import RecordConfig, design_from_netlist, transform
from recordkit.rng import MASK64, RngSpec, packed_bits
from recordkit.sim import (EXHAUSTIVE_BIT_LIMIT, SimulationError, Stimulus,
                           exhaustive_columns, r_columns, simulate,
                           simulate_netlist, verify_equivalence)
from recordkit.trojan import TriggerSpec, leak_report, trigger_experiment
from test_recordize import designs

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


@pytest.mark.parametrize("k", range(13))
def test_exhaustive_columns_lane_j_is_vector_j(k):
    cols = exhaustive_columns(k)
    assert len(cols) == k
    for j in range(1 << k):
        assert [(c >> j) & 1 for c in cols] == [(j >> p) & 1
                                                for p in range(k)]
    assert all(c < 1 << (1 << k) for c in cols)


def test_exhaustive_columns_equal_the_division_formula():
    """Column p is 2^p zeros then 2^p ones, repeated: the block times the
    repunit in base 2^(2^(p+1)), one long division per column."""
    for k in range(17):
        ones = (1 << (1 << k)) - 1
        assert exhaustive_columns(k) == tuple(
            (((1 << b) - 1) << b) * (ones // ((1 << 2 * b) - 1))
            for b in (1 << p for p in range(k))), k


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


def _entry_point(name):
    """Run one stimulus through the named entry point on maj9 (G=1)."""
    m9 = fixture_generate("maj9")
    cfg = RecordConfig.checkerboard(m9, 1)
    d, rng = transform(m9, cfg), RngSpec(1)
    trig = TriggerSpec(tuple(d.layout.buses[0].values()), (1,) * 9)
    return {
        "simulate": lambda s: simulate(d, s, rng),
        "simulate_netlist": lambda s: simulate_netlist(m9, s),
        "trigger_experiment": lambda s: trigger_experiment(d, trig, s, rng),
        "leak_report": lambda s: leak_report(d, simulate(d, s, rng)),
        "cost_report": lambda s: cost_report(
            m9, d, (simulate_netlist(m9, s), simulate(d, s, rng))),
        "ft_simulate": lambda s: ft_simulate(transform_ft(m9, cfg), s, rng),
    }[name]


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("name", ["simulate", "simulate_netlist",
                                  "trigger_experiment", "leak_report",
                                  "cost_report", "ft_simulate"])
def test_a_stimulus_needs_a_cycle(name, count):
    # a stimulus of no cycles is refused where it is made, in either form,
    # so no entry point divides by zero, reads empty streams, returns an
    # empty clean FT trace or asks the stream for a negative bit count
    run = _entry_point(name)
    for make in (lambda: Stimulus(count, (0,) * 9),
                 lambda: Stimulus.uniform(count, seed=2)):
        with pytest.raises(ValueError, match="^need at least one cycle$"):
            run(make())
    run(Stimulus(2, (0b10,) * 9))  # cost_report needs two cycles


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


def test_one_uniform_stimulus_is_drawn_once_per_width(monkeypatch):
    """The original and the design of one analysis read one draw: only the
    design's random columns are drawn besides it."""
    calls = []

    def counted(rng, count, width):
        calls.append((rng, count, width))
        return r_columns(rng, count, width)

    monkeypatch.setattr(sim, "r_columns", counted)
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    stim = Stimulus.uniform(500, seed=3)
    traces = (simulate_netlist(m9, stim), simulate(d, stim, RngSpec(4)))
    cost_report(m9, d, traces)
    simulate_netlist(m9, stim)
    assert calls == [(RngSpec(3), 500, 9), (RngSpec(4), 500, 2)]


@pytest.mark.parametrize("widths", [(8, 9), (9, 8), (8, 9, 8, 9)])
def test_a_stimulus_kept_at_two_widths_matches_fresh_draws(widths):
    stim = Stimulus.uniform(300, seed=5)
    for w in widths:
        assert stim.kept(w) == Stimulus.uniform(300, seed=5).bound(w)
        assert len(stim.kept(w)[1]) == w
    assert stim.kept(8)[1] is stim.kept(8)[1]
    assert stim.bound(8) == stim.kept(8)


def test_an_explicit_stimulus_is_kept_as_it_is():
    stim = reference_readers.from_vectors([(1, 0), (0, 1), (1, 1)])
    assert stim.kept(2) == (3, stim.columns)
    assert stim.kept(2)[1] is stim.columns
    with pytest.raises(SimulationError, match="width 2 does not match"):
        stim.kept(3)


def test_a_drawn_stimulus_keys_like_an_undrawn_one():
    drawn, fresh = Stimulus.uniform(100, seed=2), Stimulus.uniform(100, 2)
    drawn.kept(8)
    assert drawn == fresh and hash(drawn) == hash(fresh)
    assert repr(drawn) == repr(fresh) == "Stimulus(count=100, columns=None, " \
        "seed=2)"
    assert {fresh: "hit"}[drawn] == "hit"


def test_traces_hold_the_stimulus_columns_uncopied():
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 2))
    stim = Stimulus.uniform(400, seed=6)
    t_des = simulate(d, stim, RngSpec(1))
    t_orig = simulate_netlist(m9, stim)
    cols = stim.kept(9)[1]
    for i, x in enumerate(d.source_inputs):
        assert t_des.wires[x] is cols[i] and t_orig.wires[x] is cols[i]


def _edit_one_gate(n: Netlist, data) -> Netlist:
    """n with one gate's kind swapped for another of its arity (a MUX2 has
    its data inputs swapped)."""
    k = data.draw(st.integers(0, len(n.gates) - 1))
    g = n.gates[k]
    if g.kind == "MUX2":
        edited = Gate("MUX2", g.out, (g.ins[0], g.ins[2], g.ins[1]))
    else:
        kinds = ("NOT", "BUF") if len(g.ins) == 1 else (
            "AND", "OR", "NAND", "NOR", "XOR", "XNOR")
        kind = data.draw(st.sampled_from([x for x in kinds if x != g.kind]))
        edited = Gate(kind, g.out, g.ins)
    gates = n.gates[:k] + (edited,) + n.gates[k + 1:]
    return Netlist(n.name, n.inputs, n.outputs, gates)


def _flip_one_vector(n: Netlist, data) -> Netlist:
    """n with one gate-driven output complemented on one input vector m
    only, so that its first failure against n is at index m."""
    driven = [o for o in n.outputs if o not in n.inputs]
    if not driven:
        return n
    o = driven[0]
    m = data.draw(st.integers(0, 2 ** len(n.inputs) - 1))
    rename = {o: "flip_pre"}
    gates = [Gate(g.kind, rename.get(g.out, g.out),
                  tuple(rename.get(w, w) for w in g.ins)) for g in n.gates]
    literals = []
    for p, w in enumerate(n.inputs):
        if not m >> p & 1:
            gates.append(Gate("NOT", "flip_n%d" % p, (w,)))
            w = "flip_n%d" % p
        literals.append(w)
    # literals[0] again: an AND needs two inputs even when n has one
    gates.append(Gate("AND", "flip_hit", (*literals, literals[0])))
    gates.append(Gate("XOR", o, ("flip_pre", "flip_hit")))
    return Netlist(n.name, n.inputs, n.outputs, tuple(gates))


@settings(max_examples=150, deadline=None)
@given(designs(), st.data())
def test_chunked_verify_equals_the_one_pass_verdict(case, data):
    """Over two chunks or more, edited originals included, the chunked
    sweep reports what one pass over every lane does, field for field."""
    n, cfg = case
    d = transform(n, cfg)
    edit = data.draw(st.sampled_from([None, _edit_one_gate,
                                      _flip_one_vector]))
    original = edit(n, data) if edit else n
    total_bits = len(n.inputs) + cfg.groups
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "CHUNK_BITS", EXHAUSTIVE_BIT_LIMIT)
        whole = verify_equivalence(original, d)
        mp.setattr(sim, "CHUNK_BITS",
                   data.draw(st.integers(0, total_bits - 1)))
        chunked = verify_equivalence(original, d)
    assert chunked == whole


def _and_tree_with_an_or():
    """and-tree-n 16 at G=2 with one and of the x1..x8 half made an or:
    18 bits, first failing at index 196863 (x1..x8, __r1 and __r2 are 1)."""
    n = fixture_generate("and-tree-n", n=16)
    text = write_netlist(transform(n, RecordConfig.checkerboard(n, 2))
                         .netlist)
    assert text.count("\nand __f3_a14 ") == 1
    text = text.replace("\nand __f3_a14 ", "\nor __f3_a14 ")
    return n, design_from_netlist(parse_netlist(text))


@pytest.mark.parametrize("chunk_bits", [18, 16, 14, 9, 3])
def test_chunked_verify_reports_the_first_counterexample(monkeypatch,
                                                        chunk_bits):
    n, d = _and_tree_with_an_or()
    monkeypatch.setattr(sim, "CHUNK_BITS", chunk_bits)
    v = verify_equivalence(n, d)
    assert (v.cases, v.mode) == (1 << 18, "exhaustive")
    cx = v.counterexample
    assert cx.index == 196863
    assert cx.x == {"x%d" % k: int(k <= 8) for k in range(1, 17)}
    assert (cx.r, cx.expected, cx.got) == ({"__r1": 1, "__r2": 1},
                                           {"y": 0}, {"y": 1})


def test_exhaustive_verify_at_the_bit_limit_stays_in_bounded_memory():
    """A 500-gate source over 20 inputs at G=2 is a 22-bit sweep: the
    chunks keep its tracemalloc peak under 100 MB."""
    rng = random.Random(22)
    inputs = tuple("i%d" % k for k in range(20))
    wires, gates = list(inputs), []
    for k in range(500):
        kind = rng.choice(("AND", "OR", "NAND", "NOR", "XOR", "XNOR"))
        gates.append(Gate(kind, "w%d" % k,
                          (rng.choice(wires), rng.choice(wires))))
        wires.append("w%d" % k)
    n = Netlist("rand", inputs, tuple(wires[-8:]), tuple(gates))
    d = transform(n, RecordConfig.checkerboard(n, 2))
    tracemalloc.start()
    try:
        v = verify_equivalence(n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == sim.Verdict(1 << EXHAUSTIVE_BIT_LIMIT, "exhaustive")
    assert peak < 100 * 2 ** 20, peak
