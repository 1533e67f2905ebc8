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
