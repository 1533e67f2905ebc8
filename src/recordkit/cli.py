"""Command-line front end.

Exit codes: 0 success, 1 verification/validation/runtime failure, 2 usage
error. Every source of randomness goes through --seed (default 0), so
identical command lines produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import lru_cache
from typing import Optional

from .cost import cost_report
from .demo import ImageDemoConfig, demo_image
from .fixtures import FIXTURE_KINDS, fixture_generate
from .ftrecord import FaultPlan, FaultPlanError, ft_simulate, transform_ft
from .jsontext import dumps
from .netlist import (NetlistError, evaluate, open_text, read_netlist,
                      save_netlist)
from .recordize import Layout, RecordConfig, design_from_netlist, transform
from .rng import MASK64, RngSpec
from .sim import (SimulationError, Stimulus, simulate, simulate_netlist,
                  verify_equivalence)
from .trojan import LeakError, TriggerSpec, leak_report, trigger_experiment


def _write_json(path: Optional[str], doc) -> None:
    with open(path, "w", encoding="utf-8") if path else nullcontext(
            sys.stdout) as f:
        f.write(dumps(doc))


def _bit_flag(flag: str, text: str) -> tuple:
    """Parse a binary-string flag value such as '0110' into its bits."""
    if set(text) - {"0", "1"}:
        raise ValueError("%s: %r is not a string of 0s and 1s"
                         % (flag, text))
    return tuple(map(int, text))


def _seed(text: str) -> int:
    try:
        seed = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r is not an integer (decimal or 0x hex)" % text) from None
    if not 0 <= seed <= MASK64:
        raise argparse.ArgumentTypeError("%s is outside 0..2^64-1" % text)
    return seed


def _subset(arg: str) -> Optional[list]:
    if arg == "all":
        return None
    names = [w for w in arg.split(",") if w]
    if not names:
        raise ValueError("empty --subset")
    return names


def _config(args, source) -> RecordConfig:
    subset = _subset(args.subset)
    if args.grouping == "checkerboard":
        return RecordConfig.checkerboard(source, args.rand_bits, subset)
    if args.grouping.startswith("explicit:"):
        path = args.grouping.split(":", 1)[1]
        with open_text(path) as f:
            assignment = json.load(f)
        if not isinstance(assignment, dict) or any(
                type(g) is not int for g in assignment.values()):
            raise ValueError('%s: grouping file must be a JSON object '
                             '{"input": group} with integer groups' % path)
        names = subset if subset is not None else list(source.inputs)
        return RecordConfig(tuple(names), args.rand_bits, assignment)
    raise ValueError("grouping must be 'checkerboard' or 'explicit:<file>'")


def _stimulus(args) -> Stimulus:
    if getattr(args, "stimulus", None):
        return Stimulus.from_file(args.stimulus)
    return Stimulus.uniform(args.cycles, seed=args.seed ^ 1)


def cmd_fixture(args) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    n = fixture_generate(args.kind, **params)
    save_netlist(n, args.output)
    print("wrote %s (%d gates)" % (args.output, len(n.gates)))
    return 0


def cmd_check(args) -> int:
    n = read_netlist(args.netlist)
    facts = "%d inputs, %d outputs, %d gates" % (
        len(n.inputs), len(n.outputs), len(n.gates))
    # a design is loaded exactly as the design commands load it
    if Layout.is_design(n):
        d = design_from_netlist(n)
        facts += ", %d copies, G=%d" % (d.copy_count, d.config.groups)
    print("%s: ok (%s)" % (args.netlist, facts))
    return 0


def cmd_eval(args) -> int:
    n = read_netlist(args.netlist)
    if args.bits is not None:
        bits = _bit_flag("--bits", args.bits)
        if len(bits) != len(n.inputs):
            raise ValueError("--bits needs %d bits for inputs %s"
                             % (len(n.inputs), " ".join(n.inputs)))
        assignment = dict(zip(n.inputs, bits))
    elif args.assign is not None:
        assignment = {}
        for item in args.assign.split(","):
            name, sep, value = item.partition("=")
            name = name.strip()
            if not sep or value.strip() not in ("0", "1"):
                raise ValueError("--assign: %r is not of the form name=bit"
                                 % item)
            if name not in n.inputs:
                raise ValueError("--assign: %r is not an input" % name)
            if name in assignment:
                raise ValueError("--assign sets input %r twice" % name)
            assignment[name] = int(value)
    else:
        raise ValueError("need --bits or --assign")
    out = evaluate(n, assignment)
    for o in n.outputs:
        print("%s=%d" % (o, out[o]))
    print("bits: %s" % "".join(str(out[o]) for o in n.outputs))
    return 0


def cmd_recordize(args) -> int:
    source = read_netlist(args.netlist)
    cfg = _config(args, source)
    d = transform(source, cfg)
    save_netlist(d.netlist, args.output)
    if args.config_out:
        _write_json(args.config_out, cfg.to_json())
    print("wrote %s (%d replicas, %d untrusted gates)"
          % (args.output, d.replica_count, len(d.layout.untrusted)))
    return 0


def cmd_verify(args) -> int:
    original = read_netlist(args.original)
    d = design_from_netlist(read_netlist(args.transformed))
    verdict = verify_equivalence(original, d, mode=args.mode,
                                 samples=args.samples, seed=args.seed)
    if verdict.passed:
        print("equivalent over %d combinations (%s)"
              % (verdict.cases, verdict.mode))
        return 0
    cx = verdict.counterexample
    print("NOT equivalent: x=%s r=%s expected=%s got=%s"
          % (cx.x, cx.r, cx.expected, cx.got))
    return 1


def cmd_simulate(args) -> int:
    d = design_from_netlist(read_netlist(args.transformed))
    trace = simulate(d, _stimulus(args), RngSpec(args.seed))
    if args.csv:
        trace.to_csv(args.csv)
    _write_json(args.summary, trace.summary())
    return 0


def cmd_attack(args) -> int:
    d = design_from_netlist(read_netlist(args.transformed))
    trace = simulate(d, _stimulus(args), RngSpec(args.seed))
    if args.pairs == "all-t":
        k = args.isolate or 0
        # leak_report's tap rejects an --isolate that names no copy
        bus = d.layout.buses[k] if 0 <= k < d.copy_count else {}
        s = [w for i, w in bus.items() if i in d.config.randomized_inputs]
        pairs = [(a, b) for idx, a in enumerate(s) for b in s[idx + 1:]]
    elif args.pairs:
        pairs = []
        for item in args.pairs.split(","):
            a, sep, b = item.partition(":")
            if not (a and sep and b):
                raise ValueError("--pairs: %r is not of the form wireA:wireB"
                                 % item)
            pairs.append((a, b))
    else:
        pairs = []
    report = leak_report(d, trace, pairs, replica=args.isolate)
    _write_json(args.report, report.to_json())
    return 0


def cmd_trigger(args) -> int:
    d = design_from_netlist(read_netlist(args.transformed))
    watched = tuple(d.layout.buses[0].values())
    pattern = _bit_flag("--pattern", args.pattern)
    trig = TriggerSpec(watched, pattern)
    x = pattern if args.x is None else _bit_flag("--x", args.x)
    if args.cycles < 1:
        raise ValueError("need at least one cycle")
    mask = (1 << args.cycles) - 1
    stim = Stimulus(args.cycles, tuple(mask * b for b in x))
    stats = trigger_experiment(d, trig, stim, RngSpec(args.seed))
    doc = {"cycles": stats.cycles, "fired": stats.count,
           "rate": stats.rate, "analytic_rate": stats.analytic_rate}
    _write_json(args.report, doc)
    return 0


def cmd_ft_sim(args) -> int:
    source = read_netlist(args.netlist)
    cfg = RecordConfig.checkerboard(source, 1, _subset(args.subset))
    ft = transform_ft(source, cfg)
    if args.output:
        save_netlist(ft.design.netlist, args.output)
    plan = FaultPlan.from_file(args.faults) if args.faults else FaultPlan()
    trace = ft_simulate(ft, _stimulus(args), RngSpec(args.seed), plan)
    for i, inj in enumerate(plan.injections):
        if inj.cycle >= len(trace.steps):
            raise FaultPlanError("injection %d at step %d never fires: the "
                                 "run has %d steps"
                                 % (i, inj.cycle, len(trace.steps)))
    if args.csv:
        trace.to_csv(args.csv)
    doc = {"cycles": len(trace.committed),
           "steps": len(trace.steps),
           "replays": sum(1 for s in trace.steps if s.phase == 2),
           "committed_equals_reference": trace.clean,
           "permanent_fault_suspected": trace.permanent_fault_suspected}
    _write_json(args.report, doc)
    return 0 if trace.clean else 1


def cmd_cost(args) -> int:
    original = read_netlist(args.original)
    d = design_from_netlist(read_netlist(args.transformed))
    stim = _stimulus(args)
    t_orig = simulate_netlist(original, stim)
    t_des = simulate(d, stim, RngSpec(args.seed))
    report = cost_report(original, d, (t_orig, t_des))
    _write_json(args.report, report.to_json())
    return 0


def cmd_demo_image(args) -> int:
    cfg = ImageDemoConfig(
        out_dir=args.output,
        input_path=args.input,
        variant=args.variant,
        threshold=args.threshold,
        noise=args.noise,
        seed=args.seed,
        report_path=args.report,
    )
    result = demo_image(cfg)
    print("wrote %s %s %s" % (result.original_path, result.enhanced_path,
                              result.leaked_path))
    for k, v in sorted(result.scores.items()):
        if v is not None:
            print("%s: %.4f" % (k, v))
    return 0


@lru_cache(maxsize=None)  # no mutable defaults: one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="recordkit",
        description="randomized-encoding netlist toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", type=_seed, default=0,
                        help="64-bit seed for all randomness (default 0)")

    sp = sub.add_parser("fixture", help="generate a benchmark netlist")
    sp.add_argument("kind", choices=FIXTURE_KINDS)
    sp.add_argument("--n", type=int, default=None,
                    help="input count for and-tree-n")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_fixture)

    sp = sub.add_parser("check", help="validate a netlist file; a "
                        "transformed design is loaded and checked as the "
                        "design commands load it")
    sp.add_argument("netlist")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("eval", help="evaluate a netlist on one input vector")
    sp.add_argument("netlist")
    sp.add_argument("--bits", help="input bits, first declared input first")
    sp.add_argument("--assign", help="comma list name=bit")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("recordize", help="apply the encoding transform")
    sp.add_argument("netlist")
    sp.add_argument("--rand-bits", type=int, choices=(1, 2), default=1)
    sp.add_argument("--subset", default="all",
                    help="'all' or comma list of inputs to randomize")
    sp.add_argument("--grouping", default="checkerboard",
                    help="'checkerboard' or 'explicit:<json file>'")
    sp.add_argument("--config-out", help="write the config as JSON")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_recordize)

    sp = sub.add_parser("verify", help="equivalence-check a transformed file")
    sp.add_argument("original")
    sp.add_argument("transformed")
    sp.add_argument("--mode", choices=("exhaustive", "sampled"),
                    default="exhaustive")
    sp.add_argument("--samples", type=int, default=10000)
    add_seed(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="multi-cycle simulation")
    sp.add_argument("transformed")
    sp.add_argument("--cycles", type=int, default=1000)
    sp.add_argument("--stimulus", help="stimulus file (default: uniform)")
    sp.add_argument("--csv", help="write the full trace as CSV")
    sp.add_argument("--summary", help="write a JSON summary (default stdout)")
    add_seed(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("attack", help="measure implant-visible leakage")
    sp.add_argument("transformed")
    sp.add_argument("--cycles", type=int, default=10000)
    sp.add_argument("--stimulus")
    sp.add_argument("--pairs", default="all-t",
                    help="'all-t' or comma list wireA:wireB")
    sp.add_argument("--isolate", type=int, default=None,
                    help="restrict the tap to one replica index")
    sp.add_argument("--report", help="JSON output path (default stdout)")
    add_seed(sp)
    sp.set_defaults(func=cmd_attack)

    sp = sub.add_parser("trigger", help="input-pattern trigger disruption")
    sp.add_argument("transformed")
    sp.add_argument("--pattern", required=True,
                    help="bits over replica 0's input bus, input order")
    sp.add_argument("--x", help="applied input bits (default: the pattern)")
    sp.add_argument("--cycles", type=int, default=10000)
    sp.add_argument("--report")
    add_seed(sp)
    sp.set_defaults(func=cmd_trigger)

    sp = sub.add_parser("ft-sim", help="fault-tolerant variant simulation")
    sp.add_argument("netlist", help="source netlist (transformed internally)")
    sp.add_argument("--subset", default="all")
    sp.add_argument("--cycles", type=int, default=1000)
    sp.add_argument("--stimulus")
    sp.add_argument("--faults", help="fault plan JSON file")
    sp.add_argument("--csv")
    sp.add_argument("--report")
    sp.add_argument("-o", "--output", help="write the extended netlist")
    add_seed(sp)
    sp.set_defaults(func=cmd_ft_sim)

    sp = sub.add_parser("cost", help="cost proxies and ratios")
    sp.add_argument("original")
    sp.add_argument("transformed")
    sp.add_argument("--cycles", type=int, default=2000)
    sp.add_argument("--stimulus")
    sp.add_argument("--report")
    add_seed(sp)
    sp.set_defaults(func=cmd_cost)

    sp = sub.add_parser("demo-image", help="original/enhanced/leaked triple")
    sp.add_argument("-o", "--output", required=True, help="output directory")
    sp.add_argument("--input", help="input PGM (default: built-in scene)")
    sp.add_argument("--variant", choices=("plain", "record1", "record2"),
                    default="record1")
    sp.add_argument("--threshold", type=int, default=128)
    sp.add_argument("--noise", type=float, default=0.015)
    sp.add_argument("--report")
    add_seed(sp)
    sp.set_defaults(func=cmd_demo_image)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetlistError, SimulationError, LeakError, FaultPlanError,
            ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
