"""One measuring process for one workload; run.py starts it.

    python3 -I perfbench/worker.py <workload> --seed N --mode setup|run|trace
        [--seconds S]

Prints one JSON object on stdout. ``setup`` only builds the workload,
``run`` repeats the workload's pass within S seconds and at least MIN_PASSES
times with tracing off, and ``trace`` runs a warm-up pass and then
untraced and traced passes in ABBA order for S seconds. Every pass is timed,
then checked untimed. Set-up time runs from the moment the speed probe
starts, before recordkit is imported, to the moment the first pass could
start. In ``setup`` and ``run`` mode every time is reported both in wall
seconds and normalised to a nominal host speed (see speed.py); ``trace``
mode stops the probe before anything is traced.
"""

import atexit
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()
    # an alarm after the interpreter has reset its handlers would kill
    # the process, also when it exits on an error before main() runs
    atexit.register(PROBE.stop)
SETUP_MARK = PROBE.mark()
T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import recordkit  # noqa: E402

if not Path(recordkit.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit("recordkit imported from %s, not from %s"
             % (recordkit.__file__, ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

MIN_PASSES = 3

BUSY_LAYERS = (
    "rng.packed_bits", "sim.bind", "sim.r_columns", "netlist.eval",
    "trojan.leak_report", "trojan.mi", "trojan.tap", "trojan.trigger",
    "ftrecord.ft_simulate", "ftrecord.transform_ft",
    "demo.demo_image", "demo.salt_pepper", "demo.window_stimulus",
    "demo.median_filter", "demo.neighbor_differences",
    "demo.edge_prediction", "demo.leaked_image", "pgm.io",
    "netlist.parse", "netlist.validate", "recordize.transform",
    "recordize.partition_check", "recordize.design_from_netlist",
    "sim.verify", "sim.simulate", "cost.cost_report", "cost.switching",
    "cli.main",
)


def _merge(a, b):
    out = {}
    for part in ("busy", "calls", "counts"):
        merged = dict(a[part])
        for k, v in b[part].items():
            merged[k] = merged.get(k, 0) + v
        out[part] = merged
    return out


def layer_metrics(stats, growth, overhead_s):
    """Per-layer metric name -> (value, unit) from tracer statistics."""
    busy, calls, counts = stats["busy"], stats["calls"], stats["counts"]
    m = {layer + ".busy_s": (busy.get(layer, 0.0), "s")
         for layer in BUSY_LAYERS}
    eval_calls = calls.get("netlist.eval", 0)
    steps = counts.get("ftrecord.steps", 0)
    m.update({
        "rng.packed_bits.bits": (counts.get("rng.packed_bits.bits", 0),
                                 "count"),
        "sim.bind.calls": (calls.get("sim.bind", 0), "count"),
        "sim.bind.growth": (growth, "ratio"),
        "netlist.eval.calls": (eval_calls, "count"),
        "netlist.eval.gate_lanes": (counts.get("netlist.eval.gate_lanes", 0),
                                    "count"),
        "netlist.eval.lanes_per_call": (
            counts.get("netlist.eval.lanes", 0) / eval_calls
            if eval_calls else 0.0, "lanes/call"),
        "netlist.validate.calls": (calls.get("netlist.validate", 0), "count"),
        "trojan.mi.calls": (calls.get("trojan.mi", 0), "count"),
        "ftrecord.steps": (steps, "count"),
        "ftrecord.replays": (counts.get("ftrecord.replays", 0), "count"),
        "ftrecord.commit_ratio": (
            counts.get("ftrecord.committed", 0) / steps if steps else 0.0,
            "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m


def bind_growth(width, cycles):
    """Bind time of a uniform stimulus at 2N = cycles over N = cycles/2,
    each the median of repeats that fill at least 0.2 s."""
    def per_call(n):
        stim = recordkit.Stimulus.uniform(n, seed=1)
        samples = []
        while sum(samples) < 0.2:
            t0 = time.perf_counter()
            stim.bound(width)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    return per_call(cycles) / per_call(max(cycles // 2, 1))


class Passes:
    """Timed passes with their untimed checks and digests."""

    def __init__(self, workload, ops, probe=None):
        self.workload = workload
        self.ops = ops
        self.probe = probe
        self.times = []
        self.norm_times = []
        self.digests = []

    def one(self, tracer=None):
        """Run, time and check one pass; return its time, or None when an
        operation raised (counted as failed). With a tracer, ``stats``
        holds the pass's layer statistics; with a probe, ``norm_times``
        gets the pass's normalised time."""
        gc.collect()
        if tracer is not None:
            tracer.reset()
        mark = self.probe.mark() if self.probe is not None else 0
        t0 = time.perf_counter()
        try:
            out = self.workload.run_pass(self.ops)
        except Exception:   # a failing operation is counted, not fatal
            self.ops.fail("pass raised:\n" + traceback.format_exc())
            return None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            self.stats = tracer.snapshot()
        try:
            digest = self.workload.check(out, self.ops)
        except Exception:
            self.ops.fail("check raised:\n" + traceback.format_exc())
            return None
        self.times.append(elapsed)
        if self.probe is not None:
            self.norm_times.append(self.probe.since(mark, elapsed))
        self.digests.append(digest)
        return elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:     # another worker's directory is still there
            pass
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


def measure(args, workdir):
    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        PROBE.stop()
        tracer.install()
    wl = cls(args.seed, workdir)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if tracer is None:
        result["setup_norm_s"] = PROBE.since(SETUP_MARK, setup_s)
    if args.mode == "setup":
        return result
    setup_stats = None
    if tracer is not None:
        setup_stats = tracer.snapshot()
        tracer.uninstall()

    ops = Ops()
    passes = Passes(wl, ops, PROBE if tracer is None else None)
    until = time.perf_counter() + args.seconds
    if args.mode == "run":
        # at least MIN_PASSES, so the median drops a slow first pass, and
        # another only if it should end, checked, before the deadline
        while True:
            t0 = time.perf_counter()
            if passes.one() is None:
                break
            now = time.perf_counter()
            if (len(passes.times) >= MIN_PASSES
                    and now + (now - t0) > until):
                break
    else:
        # a checked warm-up pass, then pairs of one untraced and one traced
        # pass whose order alternates (ABBA), so a trend over the run
        # cancels; at least two pairs, and another only if it should end
        # before the deadline
        untraced, traced = [], []
        warmed = passes.one() is not None
        while warmed:
            t0 = time.perf_counter()
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for traced_turn in order:
                if traced_turn:
                    with tracer:
                        elapsed = passes.one(tracer)
                else:
                    elapsed = passes.one()
                if elapsed is None:
                    break
                if traced_turn:
                    traced.append((elapsed, passes.stats))
                else:
                    untraced.append(elapsed)
            if elapsed is None:
                break
            now = time.perf_counter()
            if len(traced) >= 2 and now + (now - t0) > until:
                break
        if traced:
            overhead = (statistics.median(t for t, _ in traced)
                        - statistics.median(untraced))
            # layer statistics of the traced pass of median duration
            traced.sort(key=lambda p: p[0])
            pass_stats = traced[(len(traced) - 1) // 2][1]
            growth = bind_growth(*wl.bind_shape)
            result["layers"] = layer_metrics(
                _merge(setup_stats, pass_stats), growth, overhead)
            result["traced_passes"] = len(traced)

    result.update(
        pass_s=passes.times,
        pass_norm_s=passes.norm_times,
        digests=passes.digests,
        attempted=ops.attempted,
        failed=ops.failed,
        errors=ops.errors[:20],
        cycles=wl.cycles,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if getattr(wl, "model", None) is not None:
        result["model"] = wl.model
    return result


if __name__ == "__main__":
    main()
