"""Per-layer tracing from outside the program.

The tracer replaces each traced recordkit function with a timing wrapper,
in every recordkit module that binds it (``from .sim import simulate``
makes ``trojan.simulate`` a second binding of the same function object),
and replaces ``Evaluator.run`` and ``Stimulus.bound`` on their classes.
Every wrapper keeps a stack frame so a layer's self time is its span
minus the spans of traced calls it made. ``uninstall()`` puts every
original binding back.

Only the functions the per-layer metrics name are wrapped. Per-pixel and
per-bit helpers (``window_bits``, ``Bits`` methods, fixtures) are left
alone, so their time counts in the self time of their traced caller and
the tracing overhead stays small.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter


def _count_bits(counts, result, spec, n):
    counts["rng.packed_bits.bits"] += n


def _count_eval(counts, result, evaluator, values, mask=1, force=None):
    lanes = mask.bit_length()
    counts["netlist.eval.lanes"] += lanes
    counts["netlist.eval.gate_lanes"] += lanes * len(evaluator.netlist.gates)


def _count_ft(counts, result, *args, **kwargs):
    counts["ftrecord.steps"] += len(result.steps)
    counts["ftrecord.replays"] += sum(1 for s in result.steps if s.phase == 2)
    counts["ftrecord.committed"] += len(result.committed)


# (layer, module, class or None, attribute, counter)
TRACED = (
    ("netlist.parse", "recordkit.netlist", None, "parse_netlist", None),
    ("netlist.validate", "recordkit.netlist", None, "validate", None),
    ("netlist.eval", "recordkit.netlist", "Evaluator", "run", _count_eval),
    ("recordize.transform", "recordkit.recordize", None, "transform", None),
    ("recordize.partition_check", "recordkit.recordize", None,
     "partition_check", None),
    ("recordize.design_from_netlist", "recordkit.recordize", None,
     "design_from_netlist", None),
    ("rng.packed_bits", "recordkit.rng", None, "packed_bits", _count_bits),
    ("sim.bind", "recordkit.sim", "Stimulus", "bound", None),
    ("sim.r_columns", "recordkit.sim", None, "r_columns", None),
    ("sim.simulate", "recordkit.sim", None, "simulate", None),
    ("sim.simulate", "recordkit.sim", None, "simulate_netlist", None),
    ("sim.verify", "recordkit.sim", None, "verify_equivalence", None),
    ("trojan.tap", "recordkit.trojan", None, "tap", None),
    ("trojan.mi", "recordkit.trojan", None, "mutual_information", None),
    ("trojan.leak_report", "recordkit.trojan", None, "leak_report", None),
    ("trojan.trigger", "recordkit.trojan", None, "trigger_experiment", None),
    ("ftrecord.transform_ft", "recordkit.ftrecord", None, "transform_ft",
     None),
    ("ftrecord.ft_simulate", "recordkit.ftrecord", None, "ft_simulate",
     _count_ft),
    ("cost.cost_report", "recordkit.cost", None, "cost_report", None),
    ("cost.switching", "recordkit.cost", None, "switching", None),
    ("demo.demo_image", "recordkit.demo", None, "demo_image", None),
    ("demo.salt_pepper", "recordkit.demo", None, "salt_pepper", None),
    ("demo.window_stimulus", "recordkit.demo", None, "window_stimulus", None),
    ("demo.median_filter", "recordkit.demo", None, "median_filter", None),
    ("demo.neighbor_differences", "recordkit.demo", None,
     "neighbor_differences", None),
    ("demo.edge_prediction", "recordkit.demo", None, "edge_prediction", None),
    ("demo.leaked_image", "recordkit.demo", None, "leaked_image", None),
    ("pgm.io", "recordkit.pgm", None, "read_pgm", None),
    ("pgm.io", "recordkit.pgm", None, "write_pgm", None),
    ("cli.main", "recordkit.cli", None, "main", None),
)


def recordkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "recordkit" or name.startswith("recordkit."))]


class Tracer:
    """Install timing wrappers on the traced recordkit functions.

    ``busy[layer]`` is self seconds, ``calls[layer]`` the call count and
    ``counts`` the layer counters, all since the last ``reset()``.
    """

    def __init__(self):
        self._patches = []      # (owner, attribute, original)
        self._stack = [[0.0]]   # root frame collects top-level spans
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def snapshot(self):
        return dict(busy=dict(self.busy), calls=dict(self.calls),
                    counts=dict(self.counts))

    def _wrap(self, layer, fn, counter):
        stack = self._stack
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                stack.pop()
                stack[-1][0] += span
                tracer.busy[layer] += span - frame[0]
                tracer.calls[layer] += 1
            if counter is not None:
                counter(tracer.counts, result, *args, **kwargs)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = recordkit_modules()
        for layer, modname, clsname, attr, counter in TRACED:
            owner = sys.modules[modname]
            if clsname is not None:
                owner = getattr(owner, clsname)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, counter)
            if clsname is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
