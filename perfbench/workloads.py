"""The four benchmark workloads, driven through recordkit's public API.

Each workload's constructor is its set-up. ``run_pass`` is the timed body
of one pass and returns what ``check`` needs; ``check`` runs untimed,
records failed output checks in ``ops`` and returns the SHA-256 digest
of the pass's artifacts. Library functions are looked up on their modules
at call time (``rk.simulate``, never a name imported here) so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import recordkit as rk
import recordkit.cli  # noqa: F401  (binds rk.cli)


class Ops:
    """Operations attempted and failed. An operation is one public call:
    a simulate, report, fault plan, demo call or CLI command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def fail(self, what):
        self.failed += 1
        self.errors.append(what)


def _sub_seed(seed, tag):
    return rk.rng.derive(rk.RngSpec(seed), tag).seed


def digest_tree(root):
    """SHA-256 over every file under root: relative path, size, bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as f:
                data = f.read()
            h.update(b"%s\0%d\0" % (rel.encode(), len(data)))
            h.update(data)
    return h.hexdigest()


def _json_bytes(doc):
    return json.dumps(doc, sort_keys=True).encode()


class SboxLeak:
    """aes-sbox, two random bits, checkerboard grouping, one long uniform
    trace: simulate, leak_report over all 28 encoded-input pairs, the
    original on the same stimulus, and the cost proxies."""

    name = "sbox-leak"
    CYCLES = 200_000

    def __init__(self, seed, workdir):
        n = rk.fixture_generate("aes-sbox")
        d = rk.transform(n, rk.RecordConfig.checkerboard(n, 2))
        self.original, self.design = n, d
        self.stim = rk.Stimulus.uniform(self.CYCLES, seed=_sub_seed(seed, 1))
        self.rng = rk.RngSpec(_sub_seed(seed, 2))
        ins = d.source_inputs
        self.pairs = [(d.encode_wire(a), d.encode_wire(b))
                      for k, a in enumerate(ins) for b in ins[k + 1:]]
        self.cycles = self.CYCLES
        self.bind_shape = (len(ins), self.CYCLES)
        self.model = None

    def run_pass(self, ops):
        d = self.design
        trace = ops(rk.simulate, d, self.stim, self.rng)
        report = ops(rk.leak_report, d, trace, self.pairs)
        ref = ops(rk.simulate_netlist, self.original, self.stim)
        cost = ops(rk.cost_report, self.original, d, (ref, trace))
        return trace, report, ref, cost

    def check(self, out, ops):
        trace, report, ref, cost = out
        d = self.design
        for o, z in zip(d.source_outputs, d.decoded_outputs):
            if trace.wires[z] != ref.wires[o]:
                ops.fail("simulate: decoded %s differs from the original"
                         % o)
        ref = rk.cost.REFERENCE_RATIOS
        self.model = {"area": (cost.area_ratio, ref["area"]),
                      "activity vs dynamic power": (cost.activity_ratio,
                                                    ref["dyn_power"])}
        h = hashlib.sha256(_json_bytes(report.to_json()))
        h.update(_json_bytes(cost.to_json()))
        return h.hexdigest()


class FtCampaign:
    """maj9 through transform_ft, then every replica x gate-driven wire x
    value as a single transient at cycle 17 of one 32-cycle stimulus."""

    name = "ft-campaign"
    CYCLES = 32
    FAULT_CYCLE = 17

    def __init__(self, seed, workdir):
        m9 = rk.fixture_generate("maj9")
        self.ft = rk.transform_ft(m9, rk.RecordConfig.checkerboard(m9, 1))
        self.stim = rk.Stimulus.uniform(self.CYCLES, seed=_sub_seed(seed, 1))
        self.rng = rk.RngSpec(_sub_seed(seed, 2))
        self.plans = [
            rk.FaultPlan((rk.FaultInjection(self.FAULT_CYCLE, replica,
                                            g.out, value),))
            for replica in (0, 1, 2) for g in m9.gates for value in (0, 1)]
        self.cycles = len(self.plans) * self.CYCLES
        self.bind_shape = (len(m9.inputs), self.CYCLES)

    def run_pass(self, ops):
        return [ops(rk.ft_simulate, self.ft, self.stim, self.rng, plan)
                for plan in self.plans]

    def check(self, traces, ops):
        outputs = self.ft.source.outputs
        h = hashlib.sha256()
        for plan, trace in zip(self.plans, traces):
            if not trace.clean:
                ops.fail("ft_simulate: plan %s not masked" % plan.to_json())
            h.update(bytes(c[o] for c in trace.committed for o in outputs))
            h.update(b"\n")
        return h.hexdigest()


def _read_p5(path):
    """The P5 images write_pgm produces; independent of recordkit.pgm."""
    with open(path, "rb") as f:
        data = f.read()
    magic, size, maxval, raster = data.split(b"\n", 3)
    width, height = (int(v) for v in size.split())
    if magic != b"P5" or len(raster) != width * height:
        raise ValueError("unexpected image format in %s" % path)
    return width, height, list(raster)


def majority3x3(bits, width, height):
    """3x3 majority with border replication, by row sums."""
    sums = []
    for r in range(height):
        row = bits[r * width:(r + 1) * width]
        ext = [row[0]] + row + [row[-1]]
        sums.append([ext[c] + ext[c + 1] + ext[c + 2] for c in range(width)])
    out = []
    for r in range(height):
        above, below = sums[max(r - 1, 0)], sums[min(r + 1, height - 1)]
        out.extend(1 if a + b + c >= 5 else 0
                   for a, b, c in zip(above, sums[r], below))
    return out


class DemoImage:
    """demo_image for plain/record1/record2 x three seeds on a 128x128
    synthetic scene written once to PGM."""

    name = "demo-image"
    SIZE = 128
    VARIANTS = ("plain", "record1", "record2")

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.scene = os.path.join(workdir, "scene.pgm")
        pixels = rk.synthetic_scene(self.SIZE, self.SIZE)
        rk.pgm.write_pgm(self.scene, self.SIZE, self.SIZE,
                         [255 * p for p in pixels])
        self.seeds = [3 * seed + k for k in range(3)]
        self.cycles = len(self.VARIANTS) * len(self.seeds) * self.SIZE ** 2
        self.bind_shape = (9, self.SIZE ** 2)

    def run_pass(self, ops):
        out = tempfile.mkdtemp(dir=self.workdir)
        for variant in self.VARIANTS:
            for s in self.seeds:
                tag = os.path.join(out, "%s-%d" % (variant, s))
                ops(rk.demo_image, rk.ImageDemoConfig(
                    out_dir=tag, input_path=self.scene, variant=variant,
                    seed=s, report_path=tag + ".json"))
        return out

    def check(self, out, ops):
        try:
            for variant in self.VARIANTS:
                for s in self.seeds:
                    tag = os.path.join(out, "%s-%d" % (variant, s))
                    w, h, orig = _read_p5(os.path.join(tag, "original.pgm"))
                    _, _, enh = _read_p5(os.path.join(tag, "enhanced.pgm"))
                    want = majority3x3([1 if p >= 128 else 0 for p in orig],
                                       w, h)
                    if enh != [255 * b for b in want]:
                        ops.fail("demo_image %s seed %d: enhanced image is "
                                 "not the 3x3 majority" % (variant, s))
                    if variant == "plain":
                        _, _, leak = _read_p5(os.path.join(tag, "leaked.pgm"))
                        if leak != enh:
                            ops.fail("demo_image plain seed %d: leaked image "
                                     "differs from enhanced" % s)
            return digest_tree(out)
        finally:
            shutil.rmtree(out)


class CliTour:
    """The README command tour through recordkit.cli.main, in a fresh
    directory each pass."""

    name = "cli-tour"
    PLAN = [{"cycle": 17, "replica": 0, "wire": "y", "value": 0}]
    # simulate, attack, trigger, ft-sim and cost (its default) cycles
    TOUR_CYCLES = 1000 + 20000 + 10000 + 100 + 2000
    DEMO_WINDOWS = 64 * 64

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.seed = seed
        self.cycles = self.TOUR_CYCLES + self.DEMO_WINDOWS
        self.bind_shape = (9, 20000)

    def commands(self, d):
        def p(name):
            return os.path.join(d, name)

        s = str(self.seed)
        return [
            ["fixture", "maj9", "-o", p("maj9.nl")],
            ["check", p("maj9.nl")],
            ["recordize", p("maj9.nl"), "--rand-bits", "2", "--subset", "all",
             "--grouping", "checkerboard", "-o", p("maj9r2.nl")],
            ["verify", p("maj9.nl"), p("maj9r2.nl"), "--mode", "exhaustive"],
            ["simulate", p("maj9r2.nl"), "--cycles", "1000",
             "--seed", str(self.seed + 1), "--summary", p("trace.json")],
            ["attack", p("maj9r2.nl"), "--cycles", "20000", "--seed", s,
             "--report", p("leak.json")],
            ["trigger", p("maj9r2.nl"), "--pattern", "101010101",
             "--cycles", "10000", "--seed", s, "--report", p("trigger.json")],
            ["ft-sim", p("maj9.nl"), "--cycles", "100", "--faults",
             p("plan.json"), "--seed", s, "--report", p("ft.json")],
            ["fixture", "aes-sbox", "-o", p("sbox.nl")],
            ["recordize", p("sbox.nl"), "-o", p("sboxr.nl")],
            ["cost", p("sbox.nl"), p("sboxr.nl"), "--seed", s,
             "--report", p("cost.json")],
            ["demo-image", "-o", p("demo_out"), "--variant", "record1",
             "--seed", s, "--report", p("demo.json")],
        ]

    def run_pass(self, ops):
        d = tempfile.mkdtemp(dir=self.workdir)
        with open(os.path.join(d, "plan.json"), "w", encoding="utf-8") as f:
            json.dump(self.PLAN, f)
        codes = []
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in self.commands(d):
                try:
                    codes.append(ops(rk.cli.main, argv))
                except SystemExit as exc:   # argparse usage errors
                    codes.append(exc.code)
        return d, codes

    def check(self, out, ops):
        d, codes = out
        try:
            for argv, code in zip(self.commands(d), codes):
                if code != 0:
                    ops.fail("recordkit %s exited %r" % (argv[0], code))
            with open(os.path.join(d, "ft.json"), encoding="utf-8") as f:
                if not json.load(f)["committed_equals_reference"]:
                    ops.fail("ft-sim: fault not masked")
            return digest_tree(d)
        finally:
            shutil.rmtree(d)


WORKLOADS = {w.name: w for w in (SboxLeak, FtCampaign, DemoImage, CliTour)}
