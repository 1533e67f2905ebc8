"""Mutation check: each check listed below is pinned by tests that fail
when the check is weakened.

A mutant is one exact text edit of a file under src/recordkit. For each
mutant this script copies src/ and tests/ to a temporary directory, applies
the edit there, and runs the mutant's tests with ``pytest -x``; the mutant
is killed when they fail. The unedited copy runs every listed test first,
so a test that already fails cannot kill anything.

    python tests/mutants.py           # every mutant
    python tests/mutants.py tn-pad    # the named mutants only

Prints one line per mutant and exits 1 if any mutant survives, if its old
text is not in its file exactly once, or if the unedited copy fails. It
writes only under the temporary directory. The name does not match
``test_*.py``, so pytest does not collect this module. Mutation analysis as
in DeMillo, Lipton and Sayward (IEEE Computer, 1978).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ENCODERS = ["tests/test_recordize.py::test_structural_rejections",
            "tests/test_recordize.py::test_encoder_off_its_pad_is_rejected",
            "tests/test_cli.py::test_encode_gate_padded_by_a_gate_output_"
            "is_rejected",
            "tests/test_cli.py::test_complemented_encoder_off_its_pad_is_"
            "rejected"]
CLOSURE = ["tests/test_recordize.py::test_partition_check_flags_untrusted_"
           "read",
           "tests/test_cli.py::test_loading_a_design_runs_the_closure_check"]
SWITCHING = ["tests/test_cost.py::test_switching_matches_per_gate_loop"]
TRANSPOSE = ["tests/test_bits.py", "tests/test_sim.py"]
FT = "tests/test_ftrecord.py::"
REPLAY = [FT + "test_repeat_injection_flags_permanent_suspect",
          FT + "test_clean_replay_resets_replay_limit_count"]
NO_OP = [FT + "test_force_of_the_fault_free_value_is_a_clean_step",
         FT + "test_no_op_force_at_every_step_changes_nothing",
         FT + "test_clean_span_runs_through_no_op_forces"]
SPANS = [FT + "test_clean_spans_build_no_step_until_read",
         FT + "test_word_parallel_matches_scalar_oracle"]
SIM = "tests/test_sim.py::"
DRAW = [SIM + "test_a_stimulus_kept_at_two_widths_matches_fresh_draws"]
FITTING = ["tests/test_netlist.py::test_run_keeps_a_fitting_word_and_masks_"
           "any_other"]
CHUNKS = [SIM + "test_chunked_verify_reports_the_first_counterexample",
          SIM + "test_chunked_verify_equals_the_one_pass_verdict"]
ROWS = [FT + "test_trace_rows_are_read_only",
        FT + "test_calls_on_one_memo_share_their_rows",
        FT + "test_trace_round_trips_through_pickle_and_deepcopy"]
DEMO = "tests/test_demo.py::"
RASTER = DEMO + "test_raster_helpers_return_bytes_of_the_per_pixel_reference"
MAJORITY = [DEMO + "test_median_filter_matches_brute_force", RASTER]
NOISE = [DEMO + "test_salt_pepper_matches_per_word_reference",
         DEMO + "test_salt_pepper_flips_strictly_below_the_cut", RASTER]
THRESHOLD = [DEMO + "test_binarize_matches_per_pixel_threshold", RASTER]
FT_WIRING = [FT + "test_twin_mux_mirrors_selected_exhaustively",
             FT + "test_fault_free_run_clean",
             FT + "test_each_output_comparator_sets_e",
             FT + "test_vote_outvotes_the_unselected_copy_at_the_replay"]

# (name, file under src/recordkit, old text, new text, tests)
MUTANTS = [
    # Layout.read: __t_<x> is x xor __r<g>, each condition dropped
    ("t-kind", "recordize.py", 'g.kind != "XOR" or len(g.ins) != 2',
     "len(g.ins) != 2", ENCODERS),
    ("t-arity", "recordize.py", 'g.kind != "XOR" or len(g.ins) != 2 or',
     'g.kind != "XOR" or', ENCODERS),
    ("t-input", "recordize.py", "len(g.ins) != 2 or i not in g.ins",
     "len(g.ins) != 2", ENCODERS),
    ("t-pad", "recordize.py", "i not in g.ins\n                    or not "
     "groups):", "i not in g.ins):", ENCODERS),
    # Layout.read: every __t_<x> names a source input x
    ("t-no-input", "recordize.py", "            if x not in assignment:",
     "            if False:", ENCODERS),
    # Layout.read: __tn_<x> is x xnor its twin's pad, each condition dropped
    ("tn-kind", "recordize.py", 'g.kind != "XNOR" or i not in assignment',
     "i not in assignment", ENCODERS),
    ("tn-twin", "recordize.py", 'g.kind != "XNOR" or i not in assignment',
     'g.kind != "XNOR"', ENCODERS),
    ("tn-inputs", "recordize.py", 'i not in assignment or sorted(g.ins)\n'
     '                    != sorted((i, random_wire(assignment[i]))))',
     "i not in assignment)", ENCODERS),
    ("tn-pad", "recordize.py", "random_wire(assignment[i])",
     "random_wire(1)", ENCODERS),
    # partition_check: the early exit and the reason of each read
    ("closure-raw", "recordize.py", "isdisjoint(randoms | raw)",
     "isdisjoint(randoms)", CLOSURE),
    ("closure-random", "recordize.py", "isdisjoint(randoms | raw)",
     "isdisjoint(raw)", CLOSURE),
    ("closure-random-reason", "recordize.py", "            if w in randoms:",
     "            if False:", CLOSURE),
    ("closure-raw-reason", "recordize.py", "            elif w in raw:",
     "            elif False:", CLOSURE),
    # switching: a toggle is counted between cycles c and c + 1 < cycles
    ("switching-mask-wide", "cost.py", "(1 << (t.cycles - 1)) - 1",
     "(1 << t.cycles) - 1", SWITCHING),
    ("switching-mask-narrow", "cost.py", "(1 << (t.cycles - 1)) - 1",
     "(1 << (t.cycles - 2)) - 1", SWITCHING),
    # bits.transpose: the byte-lane gather
    ("transpose-lane-next", "bits.py", "lanes[b >> 3]",
     "lanes[((b >> 3) + 1) % width]", TRANSPOSE),
    ("transpose-lane-column", "bits.py", "lanes[b >> 3]", "lanes[i >> 3]",
     TRANSPOSE),
    ("transpose-shift-plus", "bits.py", "s = (b & 7) - r",
     "s = (b & 7) - r + 1", TRANSPOSE),
    ("transpose-shift-minus", "bits.py", "s = (b & 7) - r",
     "s = (b & 7) - r - 1", TRANSPOSE),
    ("transpose-low-unshifted", "bits.py", "mask = low << r", "mask = low",
     TRANSPOSE),
    ("transpose-lane-slice", "bits.py", "data[j::width]",
     "data[j + 1::width]", TRANSPOSE),
    ("transpose-unmasked", "bits.py", "(1 << count * width) - 1",
     "(1 << (count + 8) * width) - 1", TRANSPOSE),
    ("transpose-one-unmasked", "bits.py", "(stream & ((1 << count) - 1),)",
     "(stream,)", TRANSPOSE),
    # ft_simulate: the replay limit and its counter
    ("ft-replay-limit", "ftrecord.py", "replay_faults >= REPLAY_LIMIT",
     "replay_faults > REPLAY_LIMIT", REPLAY),
    ("ft-replay-reset", "ftrecord.py", "else:\n                replay_faults "
     "= 0", "else:\n                pass", REPLAY),
    ("ft-suspicion-step", "ftrecord.py", " and suspected_at is None:", ":",
     REPLAY),
    # ft_simulate: a clean span ends at the first __e lane or flipping force
    ("ft-span-end", "ftrecord.py", "(rest & -rest).bit_length() - 1",
     "(rest & -rest).bit_length()", NO_OP),
    ("ft-span-through", "ftrecord.py", "                    end = lane\n",
     "", NO_OP),
    ("ft-no-op-flipped", "ftrecord.py", "& 1 != value", "& 1 == value",
     NO_OP),
    # FTTrace.steps: a clean span's record entry and the FTSteps built from it
    ("ft-span-r-shifted", "ftrecord.py", "self._r_bits[lc:end]",
     "self._r_bits[lc + 1:end + 1]", SPANS),
    ("ft-span-step-number", "ftrecord.py", "range(step, step + end - lc)",
     "range(step + 1, step + 1 + end - lc)", SPANS),
    ("ft-span-len-one", "ftrecord.py", "else e[2] - e[1]", "else 1", SPANS),
    ("ft-span-drop-stepped", "ftrecord.py", "steps.append(e)", "pass", SPANS),
    # ft_simulate: every row a trace holds is a read-only _Row
    ("ft-row-setitem", "ftrecord.py",
     "__setitem__ = __delitem__ = __ior__ = _read_only",
     "__delitem__ = __ior__ = _read_only", ROWS),
    ("ft-rows-plain", "ftrecord.py", "{row: _Row(zip(outputs, row))",
     "{row: dict(zip(outputs, row))", ROWS),
    ("ft-vote-plain", "ftrecord.py", "vote = _Row(zip(outputs, row[votes:]))",
     "vote = dict(zip(outputs, row[votes:]))", ROWS),
    # every force reruns: the outputs are the same, only the work differs
    ("ft-always-rerun", "ftrecord.py",
     "return (wires[w] >> lane) & 1 != value", "return True",
     [FT + "test_phase_one_stays_word_parallel"]),
    # Evaluator._readers: each op is a reader of every wire it reads
    ("readers-drop-first", "netlist.py", "for w in op[3]:",
     "for w in op[3][1:]:",
     [FT + "test_fanout_of_every_fault_site_equals_the_scan"]),
    # transform_ft: the twin mux, the comparator and the 2-of-3 vote
    ("ft-twin-mux", "ftrecord.py", "(r1, leaves[2][o], leaves[3][o])",
     "(r1, leaves[3][o], leaves[2][o])", FT_WIRING),
    ("ft-compare-unselected", "ftrecord.py", "(twin, selected_wire(o))",
     "(twin, leaves[0][o])", FT_WIRING),
    ("ft-compare-and", "ftrecord.py", 'Gate("XOR", w, (twin',
     'Gate("AND", w, (twin', FT_WIRING),
    ("ft-miscompare-and", "ftrecord.py", 'Gate("OR" if len(cmp_wires) > 1',
     'Gate("AND" if len(cmp_wires) > 1', FT_WIRING),
    ("ft-vote-pair", "ftrecord.py", "((a, b), (a, c), (b, c))",
     "((a, b), (a, c), (a, c))", FT_WIRING),
    ("ft-vote-or", "ftrecord.py", 'Gate("OR", VOTE_PREFIX + o, terms)',
     'Gate("AND", VOTE_PREFIX + o, terms)', FT_WIRING),
    # Stimulus.kept: a draw is kept per width
    ("draw-any-width", "sim.py", "if width not in self._drawn:\n"
     "            self._drawn[width] = self.bound(width)[1]\n"
     "        return self.count, self._drawn[width]",
     "if 0 not in self._drawn:\n"
     "            self._drawn[0] = self.bound(width)[1]\n"
     "        return self.count, self._drawn[0]", DRAW),
    # Evaluator.run: only a word that fits the mask is stored unmasked
    ("run-unmasked", "netlist.py", "x if 0 <= x <= mask else x & mask", "x",
     FITTING),
    # verify_equivalence: chunk j holds lanes j << low and up, and the sweep
    # stops at the first failing chunk
    ("chunk-index-next", "sim.py", "ones, j << low)", "ones, (j + 1) << low)",
     CHUNKS),
    ("chunk-high-reversed", "sim.py", "ones * (j >> p & 1)",
     "ones * (j >> (total_bits - low - 1 - p) & 1)", CHUNKS),
    ("chunk-no-early-stop", "sim.py", "            if cx is not None:\n"
     "                break\n", "", CHUNKS),
    # the image demo's byte-lane tables: window sums 5..9 are the majority,
    # a draw below the 16-bit cut flips its pixel, p >= threshold is white
    ("majority-four", "demo.py", "_MAJORITY = bytes(5)",
     "_MAJORITY = bytes(4)", MAJORITY),
    ("noise-high-byte", "demo.py", "below(hi, cut_hi + 1)",
     "below(hi, cut_hi)", NOISE),
    ("threshold-below", "demo.py", "bytes(max(threshold, 0))",
     "bytes(max(threshold - 1, 0))", THRESHOLD),
]


def _pytest(tmp: Path, tests) -> int:
    shutil.rmtree(tmp / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def _copy(tmp: Path) -> None:
    for part in ("src", "tests"):
        shutil.rmtree(tmp / part, ignore_errors=True)
        shutil.copytree(ROOT / part, tmp / part,
                        ignore=shutil.ignore_patterns("__pycache__"))


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)))
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="recordkit-mutants-") as t:
        tmp = Path(t)
        _copy(tmp)
        tests = list(dict.fromkeys(x for m in chosen for x in m[4]))
        if _pytest(tmp, tests) != 0:
            print("the unedited copy fails its tests; no mutant was run")
            return 1
        for name, file, old, new, tests in chosen:
            t0 = time.perf_counter()
            _copy(tmp)
            path = tmp / "src" / "recordkit" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                verdict = "old text found %d times" % text.count(old)
            else:
                path.write_text(text.replace(old, new), encoding="utf-8")
                code = _pytest(tmp, tests)  # 1: a test failed
                verdict = {0: "survived", 1: "killed"}.get(
                    code, "pytest exit %d" % code)
            failed += verdict != "killed"
            print("%-24s %-9s %5.1fs" % (name, verdict,
                                          time.perf_counter() - t0),
                  flush=True)
    print("%d of %d mutants killed" % (len(chosen) - failed, len(chosen)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
