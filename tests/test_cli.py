import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recordkit
from recordkit import recordize
from recordkit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def test_fixture_then_check(tmp_path, capsys):
    out = tmp_path / "maj9.nl"
    assert run("fixture", "maj9", "-o", out) == 0
    assert run("check", out) == 0
    assert "ok" in capsys.readouterr().out


def test_check_loads_a_design_and_reports_its_copies(tmp_path, capsys):
    src = tmp_path / "maj9.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "--rand-bits", "2", "-o", tmp_path / "r2.nl")
    run("ft-sim", src, "--cycles", "10", "-o", tmp_path / "ft.nl")
    capsys.readouterr()
    for name, facts in [
            ("maj9.nl", "9 inputs, 1 outputs, 127 gates"),
            ("r2.nl", "11 inputs, 2 outputs, 531 gates, 4 copies, G=2"),
            ("ft.nl", "10 inputs, 4 outputs, 536 gates, 4 copies, G=1")]:
        assert run("check", tmp_path / name) == 0
        assert capsys.readouterr().out == "%s: ok (%s)\n" % (
            tmp_path / name, facts)


def test_check_and_attack_reject_a_design_alike(tmp_path, capsys):
    src = tmp_path / "maj9.nl"
    bad = tmp_path / "bad.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", bad)
    text = bad.read_text()
    assert text.count("attr __f0_t0 replica 0\n") == 1
    bad.write_text(text.replace("attr __f0_t0 replica 0\n",
                                "attr __f0_t0 replica 1\n"))
    capsys.readouterr()
    errors = []
    for argv in (("check", bad), ("attack", bad, "--cycles", "64")):
        assert run(*argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: line 22: untrusted gate '__f0_t0' has replica "
                      "1 but is not named __f1_...\n"] * 2


def test_check_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.nl"
    bad.write_text("module m\ninput a\noutput y\nnot y a\nnot y a\nend")
    assert run("check", bad) == 1
    assert "duplicate driver" in capsys.readouterr().err


def test_eval_bits(tmp_path, capsys):
    nl = tmp_path / "adder.nl"
    assert run("fixture", "adder4", "-o", nl) == 0
    assert run("eval", nl, "--bits", "11110001") == 0
    out = capsys.readouterr().out
    assert "bits: 10000" in out  # 0xF + 0x1


def test_eval_assign(tmp_path, capsys):
    nl = tmp_path / "m.nl"
    nl.write_text("module m\ninput a b\noutput y\nand y a b\nend")
    assert run("eval", nl, "--assign", "a=1,b=1") == 0
    assert "y=1" in capsys.readouterr().out


@pytest.mark.parametrize("assign, wire", [("a=1,b=1,bogus=1", "'bogus'"),
                                          ("a=1,b=1,a=0", "'a'")])
def test_eval_assign_rejects_unknown_and_repeated(tmp_path, capsys, assign,
                                                  wire):
    nl = tmp_path / "m.nl"
    nl.write_text("module m\ninput a b\noutput y\nand y a b\nend")
    assert run("eval", nl, "--assign", assign) == 1
    assert wire in capsys.readouterr().err


@pytest.mark.parametrize("assign", ["x1", "x1=", "a=1,b"])
def test_eval_assign_rejects_malformed_item(tmp_path, capsys, assign):
    nl = tmp_path / "m.nl"
    nl.write_text("module m\ninput a b\noutput y\nand y a b\nend")
    assert run("eval", nl, "--assign", assign) == 1
    err = capsys.readouterr().err
    assert repr(assign.split(",")[-1]) in err
    assert "name=bit" in err


@pytest.mark.parametrize("argv, flag", [
    (("eval", "{src}", "--bits", "10a010101"), "--bits"),
    (("trigger", "{enc}", "--pattern", "10101010a"), "--pattern"),
    (("trigger", "{enc}", "--pattern", "101010101", "--x", "10101010x"),
     "--x"),
])
def test_malformed_bit_string_names_the_flag(tmp_path, capsys, argv, flag):
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    capsys.readouterr()
    assert run(*(a.format(src=src, enc=enc) for a in argv)) == 1
    err = capsys.readouterr().err
    assert "%s: %r" % (flag, argv[-1]) in err
    assert "0s and 1s" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("pairs", ["__t_x1", "__t_x1:", ":__t_x2",
                                   "__t_x1:__t_x2,__t_x3"])
def test_attack_rejects_malformed_pair(tmp_path, capsys, pairs):
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    capsys.readouterr()
    assert run("attack", enc, "--cycles", "100", "--pairs", pairs) == 1
    err = capsys.readouterr().err
    assert repr(pairs.split(",")[-1]) in err
    assert "wireA:wireB" in err


def test_recordize_verify_roundtrip(tmp_path):
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "maj9r2.nl"
    assert run("fixture", "maj9", "-o", src) == 0
    assert run("recordize", src, "--rand-bits", "2", "--subset", "all",
               "--grouping", "checkerboard", "-o", enc) == 0
    assert run("verify", src, enc, "--mode", "exhaustive") == 0


def test_verify_corrupted_file_fails(tmp_path, capsys):
    src = tmp_path / "and2.nl"
    src.write_text("module and2\ninput a b\noutput y\nand y a b\nend")
    enc = tmp_path / "enc.nl"
    assert run("recordize", src, "-o", enc) == 0
    text = enc.read_text().replace("xor __z_y __y_y __r1",
                                   "buf __z_y __y_y")
    enc.write_text(text)
    assert run("verify", src, enc) == 1
    assert "NOT equivalent" in capsys.readouterr().out


def test_recordize_rejects_more_groups_than_inputs(tmp_path, capsys):
    """--rand-bits takes 1 or 2 only; two groups over one randomized input
    leave group 2 empty, and checkerboard says so before any file is
    written."""
    src = tmp_path / "and2.nl"
    src.write_text("module and2\ninput a b\noutput y\nand y a b\nend")
    enc = tmp_path / "enc.nl"
    with pytest.raises(SystemExit) as exc:
        run("recordize", src, "--rand-bits", "3", "-o", enc)
    assert exc.value.code == 2
    assert "argument --rand-bits: invalid choice: 3" in capsys.readouterr().err
    assert run("recordize", src, "--rand-bits", "2", "--subset", "a",
               "-o", enc) == 1
    assert capsys.readouterr().err == "error: group 2 has no inputs\n"
    assert not enc.exists()


def test_recordize_explicit_grouping(tmp_path):
    src = tmp_path / "adder.nl"
    assert run("fixture", "adder4", "-o", src) == 0
    grouping = tmp_path / "groups.json"
    grouping.write_text(json.dumps({"a3": 1, "a2": 2, "a1": 1, "a0": 2,
                                    "b3": 1, "b2": 2, "b1": 1, "b0": 2}))
    enc = tmp_path / "enc.nl"
    assert run("recordize", src, "--rand-bits", "2",
               "--grouping", "explicit:%s" % grouping, "-o", enc) == 0
    assert run("verify", src, enc) == 0


@pytest.mark.parametrize("doc", [[], {"a3": None}, {"a3": "1"},
                                 {"a3": 1.5}, {"a3": True}])
def test_recordize_rejects_malformed_grouping_file(tmp_path, capsys, doc):
    src = tmp_path / "adder.nl"
    assert run("fixture", "adder4", "-o", src) == 0
    grouping = tmp_path / "groups.json"
    grouping.write_text(json.dumps(doc))
    assert run("recordize", src, "--grouping", "explicit:%s" % grouping,
               "-o", tmp_path / "enc.nl") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % grouping)
    assert '{"input": group}' in err


@pytest.mark.parametrize("doc", [{}, {"a3": 1}])
def test_recordize_rejects_a_grouping_that_misses_inputs(tmp_path, capsys,
                                                         doc):
    src = tmp_path / "adder.nl"
    assert run("fixture", "adder4", "-o", src) == 0
    grouping = tmp_path / "groups.json"
    grouping.write_text(json.dumps(doc))
    enc = tmp_path / "enc.nl"
    assert run("recordize", src, "--grouping", "explicit:%s" % grouping,
               "-o", enc) == 1
    assert capsys.readouterr().err == ("error: group assignment must cover "
                                       "exactly the randomized inputs\n")
    assert not enc.exists()


def test_recordize_config_out(tmp_path):
    src = tmp_path / "and2.nl"
    src.write_text("module and2\ninput a b\noutput y\nand y a b\nend")
    cfg = tmp_path / "cfg.json"
    assert run("recordize", src, "-o", tmp_path / "enc.nl",
               "--config-out", cfg) == 0
    doc = json.loads(cfg.read_text())
    assert doc == {"subset": ["a", "b"], "groups": 1,
                   "assignment": {"a": 1, "b": 1}}


def test_simulate_summary_and_csv(tmp_path):
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    summary = tmp_path / "s.json"
    csv_out = tmp_path / "t.csv"
    assert run("simulate", enc, "--cycles", "20", "--summary", summary,
               "--csv", csv_out) == 0
    doc = json.loads(summary.read_text())
    assert doc["cycles"] == 20
    assert csv_out.read_text().startswith("cycle,wire,value")


def test_attack_report(tmp_path):
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    report = tmp_path / "leak.json"
    assert run("attack", enc, "--cycles", "2000", "--report", report) == 0
    doc = json.loads(report.read_text())
    assert doc["wires"]["__t_x1"]["mi_vs"]["input"]["x1"] < 0.05
    gradient = [s for s in doc["strategies"]
                if s["name"].startswith("gradient")]
    assert gradient and all(s["accuracy"] == 1.0 for s in gradient)


def test_trigger_rates(tmp_path, capsys):
    src = tmp_path / "maj9.nl"
    enc1 = tmp_path / "e1.nl"
    enc2 = tmp_path / "e2.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc1)
    run("recordize", src, "--rand-bits", "2", "-o", enc2)
    capsys.readouterr()
    assert run("trigger", enc1, "--pattern", "101010101",
               "--cycles", "4000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["analytic_rate"] == 0.5
    assert abs(doc["rate"] - 0.5) < 0.03
    assert run("trigger", enc2, "--pattern", "101010101",
               "--cycles", "4000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["analytic_rate"] == 0.25


def test_trigger_needs_a_cycle(tmp_path, capsys):
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    capsys.readouterr()
    assert run("trigger", enc, "--pattern", "101010101",
               "--cycles", "0") == 1
    assert capsys.readouterr().err == "error: need at least one cycle\n"


def test_ft_sim_clean_and_faulted(tmp_path, capsys):
    src = tmp_path / "maj9.nl"
    run("fixture", "maj9", "-o", src)
    report = tmp_path / "ft.json"
    assert run("ft-sim", src, "--cycles", "100", "--report", report) == 0
    doc = json.loads(report.read_text())
    assert doc["committed_equals_reference"] is True
    assert doc["replays"] == 0

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        [{"cycle": 7, "replica": 0, "wire": "y", "value": 0},
         {"cycle": 31, "replica": 2, "wire": "t5", "value": 1}]))
    assert run("ft-sim", src, "--cycles", "100", "--faults", plan,
               "--report", report, "--csv", tmp_path / "ft.csv") == 0
    doc = json.loads(report.read_text())
    assert doc["committed_equals_reference"] is True


_INJ = {"cycle": 1, "replica": 0, "wire": "y", "value": 0}


@pytest.mark.parametrize("doc, message", [
    ({"cycle": 1}, "list of injections, got dict"),
    ([{"cycle": 1}], "injection 0 is not an object"),
    ([[1, 2]], "injection 0 is not an object"),
    ([_INJ, dict(_INJ, extra=1)], "injection 1 is not an object"),
    ([dict(_INJ, cycle=1.7)], "injection 0: cycle must be int, got 1.7"),
    ([dict(_INJ, value=True)], "injection 0: value must be int, got True"),
    ([dict(_INJ, replica="0")], "injection 0: replica must be int"),
    ([dict(_INJ, wire=5)], "injection 0: wire must be str, got 5"),
    # well-formed injections past the last step of the 10-step run
    ([_INJ, dict(_INJ, cycle=10), dict(_INJ, cycle=500)],
     "injection 1 at step 10 never fires: the run has 10 steps"),
])
def test_ft_sim_rejects_malformed_fault_plan(tmp_path, capsys, doc,
                                             message):
    src = tmp_path / "maj9.nl"
    assert run("fixture", "maj9", "-o", src) == 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    assert run("ft-sim", src, "--cycles", "10", "--faults", plan) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_ft_sim_output_loads_in_every_command(tmp_path, capsys):
    src = tmp_path / "maj9.nl"
    ft = tmp_path / "m9ft.nl"
    assert run("fixture", "maj9", "-o", src) == 0
    assert run("ft-sim", src, "--cycles", "50", "-o", ft) == 0
    assert run("simulate", ft, "--cycles", "200") == 0
    assert run("verify", src, ft, "--mode", "exhaustive") == 0
    assert run("attack", ft, "--cycles", "2000") == 0
    assert run("trigger", ft, "--pattern", "101010101",
               "--cycles", "1000") == 0
    assert run("cost", src, ft) == 0


def test_cost_report_cli(tmp_path, capsys):
    src = tmp_path / "sbox.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "aes-sbox", "-o", src)
    run("recordize", src, "-o", enc)
    report = tmp_path / "cost.json"
    assert run("cost", src, enc, "--cycles", "200", "--report", report) == 0
    doc = json.loads(report.read_text())
    assert 2.0 <= doc["ratios"]["area"] <= 3.0
    assert doc["ratios"]["untrusted_area"] == 2.0
    assert doc["ratios"]["depth_delta"] == 3.0
    assert doc["paper_reference"]["area"] == 2.4


@pytest.mark.parametrize("gate, nulls", [
    ("const0 y", ["activity", "area", "leakage", "untrusted_area"]),
    ("xor y a a", ["activity"]),
], ids=["zero-area", "zero-activity"])
def test_cost_reports_an_undefined_ratio_as_null(tmp_path, capsys, gate,
                                                 nulls):
    src = tmp_path / "src.nl"
    enc = tmp_path / "enc.nl"
    src.write_text("module c\ninput a\noutput y\n%s\nend\n" % gate)
    assert run("recordize", src, "-o", enc) == 0
    capsys.readouterr()
    assert run("cost", src, enc, "--cycles", "100") == 0
    out, err = capsys.readouterr()
    ratios = json.loads(out)["ratios"]
    assert sorted(k for k, v in ratios.items() if v is None) == nulls
    assert ('"%s": null' % nulls[0]) in out and err == ""


def test_demo_image_cli(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run("demo-image", "-o", out, "--variant", "record1",
               "--seed", "3", "--report", tmp_path / "rep.json") == 0
    for name in ("original.pgm", "enhanced.pgm", "leaked.pgm"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "same_group_edge_f1" in text


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("fixture", "maj9")  # missing -o
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["abc", "0xg", "1.5"])
def test_bad_seed_names_value_and_forms(tmp_path, capsys, seed):
    nl = tmp_path / "m.nl"
    nl.write_text("module m\ninput a b\noutput y\nand y a b\nend")
    with pytest.raises(SystemExit) as exc:
        run("simulate", nl, "--seed", seed)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: %r is not an integer (decimal or 0x hex)" % seed in err


@pytest.mark.parametrize("seed", ["-1", "0x10000000000000000",
                                  "0x1ffffffffffffffff",
                                  "18446744073709551616"])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, seed):
    nl = tmp_path / "m.nl"
    nl.write_text("module m\ninput a b\noutput y\nand y a b\nend")
    with pytest.raises(SystemExit) as exc:
        run("simulate", nl, "--seed", seed)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: %s is outside 0..2^64-1" % seed in err


def test_reused_parser_falls_back_to_the_default_seed(tmp_path):
    """One parser serves every main() call in a process: a --seed given to
    one command must not leak into the next."""
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    seeded, later, fresh = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run("simulate", enc, "--cycles", "16", "--seed", "5",
               "--csv", seeded) == 0
    assert run("simulate", enc, "--cycles", "16", "--csv", later) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(recordkit.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "recordkit.cli", "simulate",
                    str(enc), "--cycles", "16", "--csv", str(fresh)],
                   env=env, check=True, capture_output=True)
    assert later.read_text() == fresh.read_text()
    assert seeded.read_text() != later.read_text()


def test_seed_range_endpoints_accepted(tmp_path):
    src = tmp_path / "and2.nl"
    src.write_text("module and2\ninput a b\noutput y\nand y a b\nend")
    enc = tmp_path / "enc.nl"
    assert run("recordize", src, "-o", enc) == 0
    for seed in ("0", "0xffffffffffffffff"):
        assert run("simulate", enc, "--cycles", "8", "--seed", seed) == 0


@pytest.mark.parametrize("command", ["verify", "cost"])
def test_mismatched_original_names_the_inputs(tmp_path, capsys, command):
    adder = tmp_path / "adder4.nl"
    m9 = tmp_path / "maj9.nl"
    enc = tmp_path / "maj9r.nl"
    run("fixture", "adder4", "-o", adder)
    run("fixture", "maj9", "-o", m9)
    run("recordize", m9, "-o", enc)
    capsys.readouterr()
    assert run(command, adder, enc) == 1
    err = capsys.readouterr().err
    assert ("error: original inputs ['a3', 'a2', 'a1', 'a0', 'b3', 'b2', "
            "'b1', 'b0'] do not match the design's source inputs "
            "['x1', 'x2', 'x3', 'x4', 'x5', 'x6', 'x7', 'x8', 'x9']") in err


def test_missing_file_exits_1(tmp_path, capsys):
    assert run("check", tmp_path / "nope.nl") == 1
    assert "error:" in capsys.readouterr().err


def test_fixture_and_tree(tmp_path):
    out = tmp_path / "t.nl"
    assert run("fixture", "and-tree-n", "--n", "8", "-o", out) == 0
    assert run("check", out) == 0


def test_attack_isolation(tmp_path):
    src = tmp_path / "maj9.nl"
    enc = tmp_path / "enc.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    report = tmp_path / "leak.json"
    assert run("attack", enc, "--cycles", "500", "--isolate", "1",
               "--report", report) == 0
    doc = json.loads(report.read_text())
    assert all(w.startswith(("__f1_", "__tn_")) for w in doc["wires"])
    # all-t pairs come from replica 1's bus: 36 pairs of the 9 __tn_ wires
    assert len(doc["pairs"]) == 36
    assert ("__tn_x1", "__tn_x2") in {(p["a"], p["b"]) for p in doc["pairs"]}
    assert "input-echo(__tn_x9)" in {s["name"] for s in doc["strategies"]}


@pytest.mark.parametrize("argv", [
    ("verify", "{src}", "{bad}"),
    ("simulate", "{bad}", "--cycles", "100"),
    ("attack", "{bad}", "--cycles", "100"),
    ("trigger", "{bad}", "--pattern", "101010101", "--cycles", "100"),
    ("cost", "{src}", "{bad}", "--cycles", "100"),
])
def test_loading_a_design_runs_the_closure_check(tmp_path, capsys, argv):
    src = tmp_path / "maj9.nl"
    bad = tmp_path / "leaky.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", bad)
    # an untrusted replica-0 gate that reads the random bit directly
    bad.write_text(bad.read_text().replace(
        "\nend", "\nbuf __f0_leak __r1\nattr __f0_leak zone untrusted\n"
        "attr __f0_leak replica 0\nend"))
    capsys.readouterr()
    assert run(*(a.format(src=src, bad=bad) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: partition closure violated")
    assert "'__f0_leak'" in err and "'__r1'" in err


@pytest.mark.parametrize("argv", [
    ("attack", "{bad}", "--cycles", "100"),
    ("verify", "{src}", "{bad}"),
])
def test_missing_replica_index_names_the_gate(tmp_path, capsys, argv):
    src = tmp_path / "maj9.nl"
    bad = tmp_path / "bad.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", bad, "--rand-bits", "2")
    lines = bad.read_text().splitlines(keepends=True)
    lines.remove("attr __f1_t0 replica 1\n")
    bad.write_text("".join(lines))
    line = lines.index("and __f1_t0 __tn_x1 __t_x2 __tn_x3 __t_x4 __tn_x5\n")
    capsys.readouterr()
    assert run(*(a.format(src=src, bad=bad) for a in argv)) == 1
    assert capsys.readouterr().err == ("error: line %d: untrusted gate "
                                       "'__f1_t0' has no replica index\n"
                                       % (line + 1))


# Copy partitions no transform builds, on the maj9 G=2 text: a gate that
# changes its tag, its zone or its reads, each named by its line.
COPY_EDITS = [
    ("attr __f0_t0 replica 0\n", "attr __f0_t0 replica 1\n",
     "and __f0_t0 ", "untrusted gate '__f0_t0' has replica 1 but is not "
     "named __f1_..."),
    ("attr __f1_t1 zone untrusted\n", "",
     "and __f1_t1 ", "copy gate '__f1_t1' is not untrusted"),
    ("and __f3_t0 ", "and __f3_t0 __f0_t0 ",
     "and __f3_t0 ", "copy 3 gate '__f3_t0' reads copy 0 wire '__f0_t0'"),
]


@pytest.mark.parametrize("old, new, gate, message", COPY_EDITS)
def test_impossible_copy_partition_names_the_gate(tmp_path, capsys, old, new,
                                                   gate, message):
    src = tmp_path / "maj9.nl"
    bad = tmp_path / "bad.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", bad, "--rand-bits", "2")
    text = bad.read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    bad.write_text(text)
    line = next(i for i, t in enumerate(text.splitlines(), 1)
                if t.startswith(gate))
    capsys.readouterr()
    assert run("attack", bad, "--cycles", "64") == 1
    assert capsys.readouterr().err == "error: line %d: %s\n" % (line,
                                                                 message)


@pytest.mark.parametrize("pad", ["__rx", "__r7"])
def test_encode_gate_padded_by_a_gate_output_is_rejected(tmp_path, capsys,
                                                         pad):
    src = tmp_path / "maj9.nl"
    bad = tmp_path / "bad.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", bad)
    encode = "\nxor __t_x1 x1 __r1\n"
    text = bad.read_text()
    assert encode in text
    # x1's pad is a gate-driven wire with a random-looking name
    bad.write_text(text.replace(
        encode, "\nxor __t_x1 x1 %s\nbuf %s x1\n" % (pad, pad)))
    capsys.readouterr()
    assert run("simulate", bad, "--cycles", "10") == 1
    assert capsys.readouterr().err == \
        "error: unrecognized encode gate for input 'x1'\n"


# complemented encoders no transform builds: maj9 G=1's x1 unpadded or
# padded by another input, and maj9 G=2's x2 on group 1's pad, not its own
TN_EDITS = [
    (1, "xnor __tn_x1 x1 __r1\n", "buf __tn_x1 x1\n", "__tn_x1"),
    (1, "xnor __tn_x1 x1 __r1\n", "xnor __tn_x1 x1 x2\n", "__tn_x1"),
    (2, "xnor __tn_x2 x2 __r2\n", "xnor __tn_x2 x2 __r1\n", "__tn_x2"),
]


@pytest.mark.parametrize("groups, old, new, wire", TN_EDITS,
                         ids=["unpadded", "other-input", "other-pad"])
def test_complemented_encoder_off_its_pad_is_rejected(tmp_path, capsys,
                                                      groups, old, new,
                                                      wire):
    src = tmp_path / "maj9.nl"
    bad = tmp_path / "bad.nl"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", bad, "--rand-bits", groups)
    text = bad.read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    bad.write_text(text)
    line = text.splitlines().index(new.strip()) + 1
    capsys.readouterr()
    for argv in (("check", bad), ("attack", bad, "--cycles", "64")):
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            "error: line %d: unrecognized complemented encode gate %r\n"
            % (line, wire))


# one command per reader of an input file: netlist, stimulus, fault plan
# and grouping
@pytest.mark.parametrize("argv", [
    ("check", "{bad}"),
    ("simulate", "{enc}", "--stimulus", "{bad}"),
    ("ft-sim", "{src}", "--cycles", "10", "--faults", "{bad}"),
    ("recordize", "{src}", "--grouping", "explicit:{bad}", "-o",
     "{tmp}/out.nl"),
], ids=["netlist", "stimulus", "faults", "grouping"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, argv):
    src, enc = tmp_path / "maj9.nl", tmp_path / "enc.nl"
    bad = tmp_path / "bad.txt"
    run("fixture", "maj9", "-o", src)
    run("recordize", src, "-o", enc)
    bad.write_bytes(b"module m\xff\n")
    capsys.readouterr()
    assert run(*(a.format(src=src, enc=enc, bad=bad, tmp=tmp_path)
                 for a in argv)) == 1
    assert capsys.readouterr().err == (
        "error: %s: 'utf-8' codec can't decode byte 0xff in position 8: "
        "invalid start byte\n" % bad)


def test_fixture_rejects_a_parameter_its_kind_does_not_take(tmp_path,
                                                            capsys):
    out = tmp_path / "m9.nl"
    assert run("fixture", "maj9", "--n", "5", "-o", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'n'" in err and "maj9" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("recordize", "{src}", "-o", "{tmp}/again.nl"),
    ("verify", "{src}", "{enc}"),
    ("simulate", "{enc}", "--cycles", "100"),
    ("attack", "{enc}", "--cycles", "100", "--pairs", "all-t"),
    ("attack", "{enc}", "--cycles", "100", "--isolate", "1"),
    ("trigger", "{enc}", "--pattern", "101010101", "--cycles", "100"),
    ("cost", "{src}", "{enc}", "--cycles", "100"),
    ("ft-sim", "{src}", "--cycles", "20"),
    ("check", "{enc}"),
])
def test_closure_verdict_computed_once_per_command(tmp_path, monkeypatch,
                                                   argv):
    src, enc = tmp_path / "maj9.nl", tmp_path / "maj9r1.nl"
    assert run("fixture", "maj9", "-o", src) == 0
    assert run("recordize", src, "-o", enc) == 0
    original = recordize.partition_check
    calls = []

    def counted(d):
        calls.append(d)
        return original(d)

    # every module binding of the function, as perfbench/tracer.py finds
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "recordkit"
                                  or name.startswith("recordkit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    assert run(*(a.format(src=src, enc=enc, tmp=tmp_path)
                 for a in argv)) == 0
    assert len(calls) == 1
