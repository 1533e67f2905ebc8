"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import re
import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import recordkit  # noqa: E402
import recordkit.cli  # noqa: E402,F401

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import TRACED, Tracer, recordkit_modules  # noqa: E402
from workloads import WORKLOADS, CliTour, Ops, digest_tree  # noqa: E402


def _bindings():
    out = {(m.__name__, name): value
           for m in recordkit_modules() for name, value in vars(m).items()}
    for cls in (recordkit.netlist.Evaluator, recordkit.sim.Stimulus):
        out[(cls.__qualname__, "run/bound")] = dict(vars(cls))
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = recordkit.sim.simulate
    tracer = Tracer()
    with tracer:
        for mod in ("recordkit", "recordkit.sim", "recordkit.trojan",
                    "recordkit.demo", "recordkit.cli"):
            bound = vars(sys.modules[mod])["simulate"]
            assert bound is not original
            assert bound.__wrapped__ is original
        assert recordkit.netlist.Evaluator.run.__wrapped__ is not None
        m9 = recordkit.fixture_generate("maj9")
        d = recordkit.transform(m9, recordkit.RecordConfig.checkerboard(m9, 2))
        stim = recordkit.Stimulus.uniform(500, seed=3)
        recordkit.trojan.trigger_experiment(
            d, recordkit.TriggerSpec((d.encode_wire("x1"),), (1,)), stim,
            recordkit.RngSpec(4))
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] == value if isinstance(value, dict) \
            else after[key] is value, key
    # the simulate called inside trigger_experiment went through trojan's
    # binding; its bind and evaluation are its children, not its self time
    assert tracer.calls["sim.simulate"] == 1
    assert tracer.calls["trojan.trigger"] == 1
    assert tracer.calls["sim.bind"] == 1
    assert tracer.counts["netlist.eval.lanes"] == 500
    assert tracer.busy["netlist.eval"] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer:
        n = recordkit.fixture_generate("maj9")
        text = recordkit.netlist.write_netlist(n)
        recordkit.parse_netlist(text)
    # parse_netlist calls validate: validate is a child span of parse
    assert tracer.calls["netlist.parse"] == 1
    assert tracer.calls["netlist.validate"] >= 2
    assert tracer.busy["netlist.parse"] > 0
    assert tracer.busy["netlist.validate"] > 0


def test_one_byte_change_to_an_artifact_trips_the_digest(tmp_path):
    tour = CliTour(0, str(tmp_path))
    ops = Ops()
    d, codes = tour.run_pass(ops)
    assert codes == [0] * len(codes) and ops.attempted == len(codes)
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    golden = digest_tree(d)
    assert digest_tree(copy) == golden
    target = copy / "maj9r2.nl"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    changed = digest_tree(copy)
    assert changed != golden
    assert run.check_digests({"digests": [golden, changed]}, golden) == 1
    assert run.check_digests({"digests": [golden, changed]}, None) == 1
    assert tour.check((d, codes), ops) == golden
    assert ops.failed == 0


def test_normalise_scales_busy_time_by_sampled_speed():
    nominal = speed.NOMINAL_S
    # the snippet ran at nominal speed: only the probe's own time goes
    assert speed.normalise(1.0, [nominal] * 4) == \
        pytest.approx(1.0 - 4 * nominal)
    # a host at half speed the whole time: half the busy time
    assert speed.normalise(2.0, [2 * nominal] * 4) == \
        pytest.approx((2.0 - 8 * nominal) / 2)
    with pytest.raises(ValueError):
        speed.normalise(1.0, [])


def test_speed_probe_samples_and_restores_the_alarm():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        probe = speed.SpeedProbe()
        probe.start()
        mark = probe.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            speed.reference()
        wall = time.perf_counter() - t0
        probe.stop()
        assert probe.mark() - mark >= 3
        assert 0 < probe.since(mark, wall) < 100 * wall
        # an interval with no sample in it takes the last sample's speed
        last = probe.samples[-1]
        assert probe.since(probe.mark(), 0.004) == \
            pytest.approx(0.004 * speed.NOMINAL_S / last)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9_.-]+\Z")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name_re.match(metric["name"]), metric
        assert metric["unit"], metric
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    empty = {"busy": {}, "calls": {}, "counts": {}}
    produced = worker.layer_metrics(empty, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in produced.items()}
    assert set(worker.BUSY_LAYERS) == {layer for layer, *_ in TRACED}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
