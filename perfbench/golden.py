"""Regenerate golden.json: the artifact digest of one pass of every
workload at seeds 0..9.

    python3 perfbench/golden.py

Run it only in a change that alters recordkit's outputs on purpose; the
benchmark counts every pass whose digest differs from golden.json as a
failed operation. Digests are those of CPython 3.11 on x86-64 Linux (the
leak reports hold floating-point logarithms).
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, Ops  # noqa: E402

SEEDS = range(10)


def main():
    work_root = HERE.parent / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    golden = {}
    for name, cls in WORKLOADS.items():
        golden[name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=work_root) as workdir:
                wl = cls(seed, workdir)
                ops = Ops()
                digest = wl.check(wl.run_pass(ops), ops)
            if ops.failed:
                sys.exit("%s seed %d: %s" % (name, seed, ops.errors))
            golden[name][str(seed)] = digest
            print(name, seed, digest, flush=True)
    work_root.rmdir()
    with open(HERE / "golden.json", "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
