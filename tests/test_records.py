"""Every record class of recordkit, pinned on one sample instance each:
its constructor's keywords, order and defaults, its repr text, equality
and hash over its fields only, the error on assigning to a frozen record,
and its copy, deepcopy and pickle round trips, hidden state included."""

import copy
import inspect
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

from recordkit.cost import ActivityReport, CostReport
from recordkit.demo import DemoResult, ImageDemoConfig, _VariantRun
from recordkit.ftrecord import (FaultInjection, FaultPlan, FTDesign, FTStep,
                                FTTrace, transform_ft)
from recordkit.netlist import Gate, Netlist
from recordkit.recordize import (Layout, PartitionedDesign, RecordConfig,
                                 transform)
from recordkit.rng import RngSpec
from recordkit.sim import Counterexample, SimTrace, Stimulus, Verdict
from recordkit.trojan import (LeakReport, LeakTrace, PairMI, StrategyScore,
                              TriggerSpec, TriggerStats)

INV = Netlist("inv", ("a",), ("y",), (Gate("NOT", "y", ("a",)),))
AND2 = Netlist("and2", ("a", "b"), ("y",), (Gate("AND", "y", ("a", "b")),))
DESIGN = transform(AND2, RecordConfig.checkerboard(AND2, 1))
DESIGN2 = transform(AND2, RecordConfig.checkerboard(AND2, 2))
FT = transform_ft(AND2, RecordConfig.checkerboard(AND2, 1))
FT_INV = transform_ft(INV, RecordConfig.checkerboard(INV, 1))
STEP = FTStep(0, 1, 0, 0, 1, 0, {"y": 1}, None)
CX = Counterexample(3, {"a": 1}, {"__r1": 0}, {"y": 1}, {"y": 0})


def _drawn_stimulus():
    s = Stimulus(4, None, 3)
    s.kept(2)  # the kept draw is hidden state: not compared, hashed, shown
    return s


# MappingProxyType fields (a config's grouping, a layout's buses) cannot be
# pickled, so a record that holds one, or caches a layout, cannot either
NO_DEEP = ("deepcopy", "pickle")

# (class, fields, frozen, hashable, round trips that raise TypeError,
#  sample, equal twin (differing in hidden state where a class has some),
#  a record with one field changed, defaults of the trailing fields)
CASES = [
    (Gate, ("kind", "out", "ins", "zone", "replica"), True, True, (),
     lambda: Gate("AND", "y", ("a", "b"), "untrusted", 2, 7),
     lambda: Gate("AND", "y", ("a", "b"), "untrusted", 2),
     lambda: Gate("AND", "y", ("a", "b"), "untrusted", 1, 7),
     ("trusted", None)),
    (Netlist, ("name", "inputs", "outputs", "gates"), True, True, (),
     lambda: INV, lambda: Netlist("inv", ("a",), ("y",), INV.gates),
     lambda: Netlist("inv2", ("a",), ("y",), INV.gates), ()),
    (RecordConfig, ("randomized_inputs", "groups", "group_assignment"),
     True, False, NO_DEEP,
     lambda: RecordConfig(("a", "b"), 2, {"a": 1, "b": 2}),
     lambda: RecordConfig(["a", "b"], 2, {"b": 2, "a": 1}),
     lambda: RecordConfig(("a", "b"), 2, {"a": 2, "b": 1}), (1, {})),
    (Layout, ("random_wires", "source_inputs", "encoded_outputs",
              "decoded_outputs", "source_outputs", "config", "untrusted",
              "copies", "buses", "copy_outputs", "reads", "drives", "cut",
              "harness"), True, False, NO_DEEP,
     lambda: DESIGN.layout, lambda: Layout.read(DESIGN.netlist),
     lambda: DESIGN2.layout, ()),
    (PartitionedDesign, ("netlist",), True, True, NO_DEEP,
     lambda: DESIGN, lambda: PartitionedDesign(DESIGN.netlist),
     lambda: DESIGN2, ()),
    (Stimulus, ("count", "columns", "seed"), True, True, (),
     _drawn_stimulus, lambda: Stimulus(4, seed=3), lambda: Stimulus(4, seed=4),
     (None, 0)),
    (SimTrace, ("netlist", "cycles", "wires"), False, False, (),
     lambda: SimTrace(INV, 2, {"a": 1, "y": 2}),
     lambda: SimTrace(INV, 2, {"a": 1, "y": 2}),
     lambda: SimTrace(INV, 2, {"a": 1, "y": 0}), ()),
    (Counterexample, ("index", "x", "r", "expected", "got"), True, False, (),
     lambda: CX, lambda: Counterexample(3, {"a": 1}, {"__r1": 0}, {"y": 1},
                                        {"y": 0}),
     lambda: Counterexample(3, {"a": 1}, {"__r1": 1}, {"y": 1}, {"y": 0}),
     ()),
    (Verdict, ("cases", "mode", "counterexample"), True, False, (),
     lambda: Verdict(4, "exhaustive", CX), lambda: Verdict(4, "exhaustive",
                                                           copy.copy(CX)),
     lambda: Verdict(4, "random", CX), (None,)),
    (RngSpec, ("seed",), True, True, (),
     lambda: RngSpec(7), lambda: RngSpec(7), lambda: RngSpec(8), (0,)),
    (FTDesign, ("design", "source"), True, True, NO_DEEP,
     lambda: FT, lambda: FTDesign(FT.design, FT.source),
     lambda: FT_INV, ()),
    (FaultInjection, ("cycle", "replica", "wire", "value"), True, True, (),
     lambda: FaultInjection(3, 1, "y", 0),
     lambda: FaultInjection(3, 1, "y", 0),
     lambda: FaultInjection(3, 1, "y", 1), ()),
    (FaultPlan, ("injections",), False, False, (),
     lambda: FaultPlan((FaultInjection(3, 1, "y", 0),)),
     lambda: FaultPlan([FaultInjection(3, 1, "y", 0)]),
     lambda: FaultPlan(), ((),)),
    (FTStep, ("step", "phase", "logical_cycle", "e", "r", "miscompare",
              "committed", "buffered"), False, False, (),
     lambda: FTStep(0, 1, 0, 0, 1, 0, {"y": 1}, None),
     lambda: FTStep(0, 1, 0, 0, 1, 0, {"y": 1}, None),
     lambda: FTStep(0, 1, 0, 1, 1, 0, {"y": 1}, None), ()),
    (FTTrace, ("steps", "committed", "reference", "suspected_at_step"),
     False, False, (),
     lambda: FTTrace([STEP], [{"y": 1}], [{"y": 1}], 5),
     lambda: FTTrace([copy.copy(STEP)], [{"y": 1}], [{"y": 1}], 5),
     lambda: FTTrace([STEP], [{"y": 1}], [{"y": 0}], 5), (None,)),
    (ActivityReport, ("total_toggles", "weighted_activity"), False, False,
     (), lambda: ActivityReport(5, 2.5), lambda: ActivityReport(5, 2.5),
     lambda: ActivityReport(5, 3.5), ()),
    (CostReport, ("area_original", "area_transformed", "area_untrusted",
                  "depth_original", "depth_transformed",
                  "activity_original", "activity_transformed"),
     False, False, (), lambda: CostReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
     lambda: CostReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
     lambda: CostReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0), ()),
    (ImageDemoConfig, ("out_dir", "input_path", "variant", "threshold",
                       "noise", "seed", "report_path"), False, False, (),
     lambda: ImageDemoConfig("out", "in.pgm", "record2", 100, 0.1, 3, "r"),
     lambda: ImageDemoConfig("out", "in.pgm", "record2", 100, 0.1, 3, "r"),
     lambda: ImageDemoConfig("out", "in.pgm", "record2", 100, 0.1, 4, "r"),
     (None, "record1", 128, 0.015, 0, None)),
    (DemoResult, ("original_path", "enhanced_path", "leaked_path", "scores",
                  "report"), False, False, (),
     lambda: DemoResult("o", "e", "l", {"s": 0.5}, {"k": 1}),
     lambda: DemoResult("o", "e", "l", {"s": 0.5}, {"k": 1}),
     lambda: DemoResult("o", "e", "l", {"s": None}, {"k": 1}), ()),
    (_VariantRun, ("enhanced", "estimates", "same_group", "cross_group",
                   "trace", "design"), False, False, (),
     lambda: _VariantRun(b"\1\0", [1, 2], [0], [1], None, None),
     lambda: _VariantRun(b"\1\0", [1, 2], [0], [1], None, None),
     lambda: _VariantRun(b"\1\1", [1, 2], [0], [1], None, None), ()),
    (LeakTrace, ("cycles", "wires"), False, False, (),
     lambda: LeakTrace(4, {"w": 3}), lambda: LeakTrace(4, {"w": 3}),
     lambda: LeakTrace(5, {"w": 3}), ()),
    (PairMI, ("a", "b", "mi"), True, True, (),
     lambda: PairMI("a", "b", 0.5), lambda: PairMI("a", "b", 0.5),
     lambda: PairMI("b", "a", 0.5), ()),
    (StrategyScore, ("name", "accuracy"), True, True, (),
     lambda: StrategyScore("s", 0.25), lambda: StrategyScore("s", 0.25),
     lambda: StrategyScore("s", 0.75), ()),
    (LeakReport, ("wire_mi", "pairs", "strategies"), False, False, (),
     lambda: LeakReport({"w": {"x": {"a": 0.1}}}, [PairMI("a", "b", 0.5)],
                        [StrategyScore("s", 0.25)]),
     lambda: LeakReport({"w": {"x": {"a": 0.1}}}, [PairMI("a", "b", 0.5)],
                        [StrategyScore("s", 0.25)]),
     lambda: LeakReport({"w": {"x": {"a": 0.1}}}, [], []), ()),
    (TriggerSpec, ("watched", "pattern"), True, True, (),
     lambda: TriggerSpec(("x1", "x2"), (1, 0)),
     lambda: TriggerSpec(("x1", "x2"), (1, 0)),
     lambda: TriggerSpec(("x1", "x2"), (1, 1)), ()),
    (TriggerStats, ("cycles", "fired", "analytic_rate"), False, False, (),
     lambda: TriggerStats(8, 0b101, 0.25), lambda: TriggerStats(8, 0b101, 0.25),
     lambda: TriggerStats(8, 0b111, 0.25), ()),
]


def _state(x):
    """Everything a record holds, compared fields and hidden ones alike."""
    slots = getattr(type(x), "__slots__", ())
    if slots and not hasattr(x, "__dict__"):
        return {s: getattr(x, s) for s in slots}
    return dict(vars(x))


def _round_trips():
    return {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda x: pickle.loads(pickle.dumps(x))}


def test_every_record_class_is_pinned():
    assert len(CASES) == 26
    assert len({c[0] for c in CASES}) == 26


@pytest.mark.parametrize("case", CASES, ids=[c[0].__name__ for c in CASES])
def test_record(case):
    cls, fields, frozen, hashable, unpicklable, make, twin, other, defaults \
        = case
    x, y, z = make(), twin(), other()
    values = tuple(getattr(x, f) for f in fields)

    # the constructor: keywords in field order, then Gate's hidden line
    params = list(inspect.signature(cls).parameters)
    assert params == list(fields) + (["line"] if cls is Gate else [])
    assert cls(*values) == x and cls(**dict(zip(fields, values))) == x
    if defaults:
        built = cls(*values[:len(fields) - len(defaults)])
        assert tuple(getattr(built, f) for f in fields[-len(defaults):]) \
            == defaults

    # repr: the compared fields, in order, and nothing else
    assert repr(x) == "%s(%s)" % (cls.__qualname__, ", ".join(
        "%s=%r" % (f, v) for f, v in zip(fields, values)))

    # equality over the fields only; another class is not comparable
    assert x == y and not x != y
    assert x != z and not x == z
    assert x.__eq__(object()) is NotImplemented

    if hashable:
        assert hash(x) == hash(y) == hash(cls(*values))
    else:
        with pytest.raises(TypeError):
            hash(x)

    for f in fields:
        if frozen:
            with pytest.raises(FrozenInstanceError,
                               match="cannot assign to field %r" % f):
                setattr(x, f, getattr(x, f, None))
            with pytest.raises(FrozenInstanceError,
                               match="cannot delete field %r" % f):
                delattr(x, f)
        else:
            setattr(x, f, getattr(x, f))
    if frozen:  # no other name can be set either
        with pytest.raises((AttributeError, TypeError)):
            x.not_a_field = 1
        assert not hasattr(x, "not_a_field")
    assert x == y and tuple(getattr(x, f) for f in fields) == values

    for name, trip in _round_trips().items():
        if name in unpicklable:
            with pytest.raises(TypeError):
                trip(x)
            continue
        got = trip(x)
        assert type(got) is cls and got == x and repr(got) == repr(x)
        assert _state(got) == _state(x), name
        if hashable:
            assert hash(got) == hash(x)


def test_gate_line_and_kept_draws_are_hidden_state():
    g = Gate("AND", "y", ("a", "b"), line=7)
    assert _state(g)["line"] == 7 and _state(copy.copy(g))["line"] == 7
    s = _drawn_stimulus()
    assert list(_state(s)["_drawn"]) == [2]
    for name, trip in _round_trips().items():
        assert trip(g).line == 7, name
        assert trip(s)._drawn == s._drawn, name


def test_records_are_defined_without_dataclasses():
    """Importing the package and its command line loads none of the
    dataclass machinery: not dataclasses, nor the inspect it imports."""
    code = ("import sys, recordkit, recordkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c",
                          "import sys; sys.path[:0] = %r; %s"
                          % (sys.path, code)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
