"""recordkit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sbox-leak --seed 0 --seconds 25 \
        --trace 0

Each workload runs in fresh single-threaded worker processes, one after
the other. With ``--trace 0`` the run starts SETUP_PROBES set-up-only
workers and then one worker that repeats the workload's pass within
``--seconds``, and at least three times; it reports the end-to-end
metrics, whose times are normalised to a nominal host speed (speed.py),
and prints the wall-clock medians beside them. With ``--trace 1`` one
worker alternates untraced passes with passes in which every traced
recordkit function is wrapped, and reports the per-layer metrics and the
tracing overhead (median traced minus median untraced pass time). Outputs are checked on every pass; at a seed listed
in golden.json the artifact digests must match it byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when every output was correct, 1 when a check failed and 2 when no
result could be produced (for example, recordkit is missing).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sbox-leak", "ft-campaign", "demo-image", "cli-tour")
SETUP_PROBES = 10
DEADLINE_S = 170

END_TO_END = {
    "pass_norm_s": "s",
    "cycles_per_norm_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

class BenchError(Exception):
    pass


def run_worker(workload, seed, mode, seconds, deadline):
    cmd = [sys.executable, "-I", str(WORKER), workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker for %s timed out" % (mode, workload))
    if proc.returncode != 0:
        raise BenchError("%s worker for %s exited %d:\n%s"
                         % (mode, workload, proc.returncode, proc.stderr))
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def load_golden(workload, seed):
    path = HERE / "golden.json"
    with open(path, encoding="utf-8") as f:
        return json.load(f).get(workload, {}).get(str(seed))


def check_digests(res, golden):
    """Failed checks: passes whose digest differs from the golden one or,
    without a golden digest, from the run's first pass."""
    want = golden or (res["digests"][0] if res["digests"] else None)
    return sum(1 for d in res["digests"] if d != want)


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def end_to_end(args, deadline):
    setups = [run_worker(args.workload, args.seed, "setup", 0, deadline)
              for _ in range(SETUP_PROBES)]
    res = run_worker(args.workload, args.seed, "run", args.seconds, deadline)
    setups.append(res)
    if not res["pass_s"]:
        raise BenchError("no pass completed:\n" + "\n".join(res["errors"]))
    pass_norm_s = statistics.median(res["pass_norm_s"])
    n = len(res["pass_s"])
    wall = ", wall %s s" % fmt(statistics.median(res["pass_s"]))
    metrics = {
        "pass_norm_s": (pass_norm_s, "median of %d passes%s" % (n, wall)),
        "cycles_per_norm_s": (res["cycles"] / pass_norm_s,
                              "%d cycles per pass over pass_norm_s"
                              % res["cycles"]),
        "setup_s": (statistics.median(r["setup_norm_s"] for r in setups),
                    "normalised, median of %d set-ups, wall %s s"
                    % (len(setups), fmt(statistics.median(
                        r["setup_s"] for r in setups)))),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "the measuring process"),
    }
    for name, (value, note) in metrics.items():
        print("  %-17s %-14s %-9s %s" % (name, fmt(value), END_TO_END[name],
                                         note))
    if "model" in res:
        print("model accuracy (ungated; power and delay are unvalidated "
              "structural proxies, not synthesis results):")
        for label, (proxy, ref) in res["model"].items():
            print("  %s ratio %.4f, paper %.2fx, error %+.1f%%"
                  % (label, proxy, ref, 100 * (proxy - ref) / ref))
    return res, {k: (v[0], END_TO_END[k]) for k, v in metrics.items()}


def per_layer(args, deadline):
    res = run_worker(args.workload, args.seed, "trace", args.seconds,
                     deadline)
    if "layers" not in res:
        raise BenchError("no traced pass completed:\n"
                         + "\n".join(res["errors"]))
    print("  per-layer figures: one traced set-up plus the median of %d "
          "traced passes; busy_s is self time" % res["traced_passes"])
    for name, (value, unit) in res["layers"].items():
        print("  %-34s %-14s %s" % (name, fmt(value), unit))
    return res, {k: tuple(v) for k, v in res["layers"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 32:
        ap.error("--seed must be in 0..2^32-1")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    try:
        golden = load_golden(args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        res, values = measure(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    mismatches = check_digests(res, golden)
    failed = res["failed"] + mismatches
    attempted = res["attempted"]
    print("  ops_failed     %d/%d ops" % (failed, attempted))
    for err in res["errors"]:
        print("  failure: %s" % err)
    if golden:
        against = "the golden digest for seed %d" % args.seed
    else:
        against = "the first pass (no golden digest for seed %d)" % args.seed
    print("  digest sha256 %s: %d of %d passes differ from %s"
          % (res["digests"][0], mismatches, len(res["digests"]), against))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
