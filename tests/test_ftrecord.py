import copy
import pickle
from dataclasses import FrozenInstanceError, asdict
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from reference_readers import from_vectors
from test_netlist import scanned_fanout, stuck_at
from test_sim import words

from recordkit import netlist
from recordkit.fixtures import fixture_generate
from recordkit.netlist import Evaluator, parse_netlist
from recordkit.recordize import (MISCOMPARE_WIRE, TWIN_SELECT_PREFIX,
                                 VOTE_PREFIX, PartitionedDesign, RecordConfig,
                                 partition_check, replica_wire, selected_wire,
                                 transform)
from recordkit.rng import RngSpec
from recordkit.ftrecord import (REPLAY_LIMIT, FaultInjection, FaultPlan,
                                FaultPlanError, FTDesign, FTStep, FTTrace,
                                ft_simulate, transform_ft)
from recordkit.sim import Stimulus, simulate
from recordkit.trojan import leak_report


def _ft_maj9():
    m9 = fixture_generate("maj9")
    return m9, transform_ft(m9, RecordConfig.checkerboard(m9, 1))


def _ft_and2():
    n = parse_netlist("module and2\ninput a b\noutput y\nand y a b\nend")
    return n, transform_ft(n, RecordConfig.checkerboard(n, 1))


def test_four_copies_built():
    m9, ft = _ft_maj9()
    replicas = {g.replica for g in ft.design.layout.untrusted}
    assert replicas == {0, 1, 2, 3}
    assert (ft.design.replica_count, ft.design.copy_count) == (2, 4)
    for k in (0, 1, 2, 3):
        assert sum(g.replica == k
                   for g in ft.design.layout.untrusted) == len(m9.gates)


@pytest.mark.parametrize("name", ["maj9", "adder4"])
def test_ft_netlist_extends_the_plain_transform(name):
    # every gate of the plain transform, in its order; the rest are the
    # twins and the trusted twin mux, comparators and votes
    n = fixture_generate(name)
    cfg = RecordConfig.checkerboard(n, 1)
    plain = transform(n, cfg).netlist.gates
    gates = transform_ft(n, cfg).design.netlist.gates
    kept = set(plain)
    assert tuple(g for g in gates if g in kept) == plain
    extra = [g for g in gates if g not in kept]
    assert len(extra) == 2 * len(n.gates) + 6 * len(n.outputs) + 1
    assert {g.replica for g in extra if g.zone == "untrusted"} == {2, 3}


def test_twins_read_only_their_originals_encodings():
    m9, ft = _ft_maj9()
    drivers = {g.out: g for g in ft.design.netlist.gates}
    for g in ft.design.layout.untrusted:
        if g.replica >= 2:
            k = g.replica - 2
            original = drivers[g.out.replace(replica_wire(g.replica, ""),
                                             replica_wire(k, ""), 1)]
            assert original.replica == k and g.kind == original.kind
            assert g.ins == tuple(
                w.replace(replica_wire(k, ""), replica_wire(g.replica, ""), 1)
                for w in original.ins)
    # and so no twin wire carries a source input: each copy's view of a
    # long uniform run stays below 0.01 bits against every input
    t = simulate(ft.design, Stimulus.uniform(20000, seed=12), RngSpec(13))
    for k in (2, 3):
        rows = leak_report(ft.design, t, replica=k).wire_mi
        assert len(rows) > len(m9.gates)
        worst = max(mi for row in rows.values()
                    for mi in row["input"].values())
        assert worst < 0.01, (k, worst)


def test_partition_check_passes():
    _, ft = _ft_maj9()  # construction ran the check once; it raises if not
    partition_check(ft.design)


def test_rejects_two_groups():
    m9 = fixture_generate("maj9")
    with pytest.raises(ValueError, match="one random bit"):
        transform_ft(m9, RecordConfig.checkerboard(m9, 2))


def test_transform_ft_validates_and_wraps_one_netlist(monkeypatch):
    m9 = fixture_generate("maj9")
    calls = []
    validate, post_init = netlist.validate, PartitionedDesign.__post_init__
    monkeypatch.setattr(netlist, "validate",
                        lambda n: calls.append(n.name) or validate(n))
    monkeypatch.setattr(PartitionedDesign, "__post_init__",
                        lambda d: calls.append(d) or post_init(d))
    ft = transform_ft(m9, RecordConfig.checkerboard(m9, 1))
    assert calls == ["maj9_record1_ft", ft.design]


def test_twin_mux_mirrors_selected_exhaustively():
    # all 2^(9+1) combinations: the twin mux equals the selected output and
    # no miscompare ever, in the run plan and gate by physical gate
    m9, ft = _ft_maj9()
    total_bits = 10
    count = 1 << total_bits
    mask = count - 1

    def column(p):
        block = 1 << p
        unit = ((1 << block) - 1) << block
        return unit * (((1 << count) - 1) // ((1 << (2 * block)) - 1))

    values = {w: column(i) for i, w in enumerate(m9.inputs)}
    values["__r1"] = column(9)
    ev = Evaluator(ft.design.netlist)
    physical = dict(values)
    netlist._evaluate(ev._ops, physical, mask)
    for v in (ev.run(values, mask=mask), physical):
        assert v[TWIN_SELECT_PREFIX + "y"] == v[selected_wire("y")]
        assert v[MISCOMPARE_WIRE] == 0


def test_twins_are_bufs_in_the_plan_and_faults_stay_on_them():
    m9, ft = _ft_maj9()
    ev = ft.design.netlist.evaluator
    plan = {op[2]: op for op in ev._plan}
    copy0 = {replica_wire(0, g.out) for g in m9.gates}
    for g in m9.gates:
        for twin in (2, 3):
            original = replica_wire(twin - 2, g.out)
            assert plan[replica_wire(twin, g.out)] == (
                "BUF", False, replica_wire(twin, g.out), (original,))
        assert not copy0 & {op[2] for op in ev.fanout(replica_wire(2, g.out))}


def test_fault_free_run_clean():
    _, ft = _ft_maj9()
    trace = ft_simulate(ft, Stimulus.uniform(1000, seed=0), RngSpec(1))
    assert trace.clean
    assert all(s.e == 0 for s in trace.steps)
    assert all(s.phase == 1 for s in trace.steps)
    assert not trace.permanent_fault_suspected


def test_selected_replica_fault_detected_and_replayed():
    _, ft = _ft_maj9()
    # force replica 0's output wrong at step 17; whether it is selected
    # depends on r, so force the flip via value 0 and 1 and check both
    for forced in (0, 1):
        plan = FaultPlan((FaultInjection(17, 0, "y", forced),))
        trace = ft_simulate(ft, Stimulus.uniform(200, seed=3), RngSpec(4),
                            plan)
        assert trace.clean  # committed stream always equals the reference
        step17 = trace.steps[17]
        r17 = step17.r
        # replica 0 is the selected copy when r = 0
        selected_hit = (r17 == 0)
        flipped = selected_hit and forced != trace.reference[
            step17.logical_cycle]["y"]
        if flipped:
            assert step17.e == 1
            assert trace.steps[18].phase == 2
            assert trace.steps[18].logical_cycle == step17.logical_cycle
        else:
            assert all(s.phase == 1 for s in trace.steps)


def test_unselected_replica_fault_invisible():
    _, ft = _ft_maj9()
    # find a step where r = 1 (replica 1 selected), then fault replica 0
    probe = ft_simulate(ft, Stimulus.uniform(100, seed=5), RngSpec(6))
    target = next(s.step for s in probe.steps if s.r == 1)
    ref_bit = probe.reference[target]["y"]
    plan = FaultPlan((FaultInjection(target, 0, "y", 1 - ref_bit),))
    trace = ft_simulate(ft, Stimulus.uniform(100, seed=5), RngSpec(6), plan)
    assert trace.clean
    assert all(s.e == 0 for s in trace.steps)


def test_unselected_twin_fault_invisible():
    _, ft = _ft_maj9()
    # a fault on the twin of the copy that is not selected reaches neither
    # the twin mux nor the vote
    probe = ft_simulate(ft, Stimulus.uniform(100, seed=5), RngSpec(6))
    for r, twin in ((1, 2), (0, 3)):
        target = next(s.step for s in probe.steps if s.r == r)
        ref_bit = probe.reference[target]["y"]
        plan = FaultPlan((FaultInjection(target, twin, "y", 1 - ref_bit),))
        trace = ft_simulate(ft, Stimulus.uniform(100, seed=5), RngSpec(6),
                            plan)
        assert trace.clean
        assert all(s.e == 0 for s in trace.steps)


@pytest.mark.parametrize("name", ["maj9", "adder4"])
def test_each_output_comparator_sets_e(name):
    # the selected copy's gate of one output flipped at cycle 5: that
    # output's comparator alone sets __e, and the replay commits the
    # reference
    n, ft = _oracle_design(name)
    stim, rng = Stimulus.uniform(16, seed=2), RngSpec(3)
    clean = simulate(ft.design, stim, rng).wires
    r = (clean[ft.design.random_wires[0]] >> 5) & 1
    for o in n.outputs:
        value = 1 - ((clean[replica_wire(r, o)] >> 5) & 1)
        trace = ft_simulate(ft, stim, rng,
                            FaultPlan((FaultInjection(5, r, o, value),)))
        assert (trace.steps[5].e, trace.steps[6].phase) == (1, 2), o
        assert trace.clean, o


def test_vote_outvotes_the_unselected_copy_at_the_replay():
    # the selected copy faulted, so the step miscompares; at its replay the
    # unselected copy is forced wrong. The selected copy and its twin agree
    # again and outvote it, for either selected copy and either value of y
    _, ft = _ft_maj9()
    stim, rng = Stimulus.uniform(64, seed=9), RngSpec(10)
    clean = simulate(ft.design, stim, rng).wires
    reference = ft_simulate(ft, stim, rng).reference
    seen = set()
    for lane in range(stim.count - 1):
        r = (clean[ft.design.random_wires[0]] >> lane) & 1
        y = reference[lane]["y"]
        if (r, y) in seen:
            continue
        seen.add((r, y))
        plan = FaultPlan((FaultInjection(lane, r, "y", 1 - y),
                          FaultInjection(lane + 1, 1 - r, "y", 1 - y)))
        trace = ft_simulate(ft, stim, rng, plan)
        replay = trace.steps[lane + 1]
        assert trace.steps[lane].e == 1
        assert (replay.phase, replay.miscompare, replay.committed) == (
            2, 0, {"y": y})
        assert trace.clean
    assert len(seen) == 4


def test_repeat_injection_flags_permanent_suspect():
    _, ft = _ft_and2()
    stim = from_vectors([(1, 1)] * 50)
    # stuck-at-0 on the output wire of replica 0 at every step; with x=11
    # the function value is 1, so whenever replica 0 is selected this
    # miscompares, and it persists through every replay
    plan = FaultPlan(tuple(FaultInjection(c, 0, "y", 0) for c in range(80)))
    trace = ft_simulate(ft, stim, RngSpec(7), plan)
    assert trace.permanent_fault_suspected
    replays = [s for s in trace.steps if s.phase == 2]
    assert all(s.miscompare for s in replays)
    # suspicion is raised at the REPLAY_LIMIT-th miscompared replay in a
    # row and kept there while miscompared replays go on after it
    assert trace.suspected_at_step == replays[REPLAY_LIMIT - 1].step == 12
    assert len(replays) > REPLAY_LIMIT


def test_clean_replay_resets_replay_limit_count():
    _, ft = _ft_and2()
    stim = from_vectors([(1, 1)] * 30)
    # two bursts of stuck-at-0 on replica 0's output; with this seed the
    # replays miscompare 1, 0, 1, 1 times: three in all, never three in a row
    plan = FaultPlan(tuple(FaultInjection(c, 0, "y", 0)
                           for c in (0, 1, 2, 3, 10, 11, 12, 13)))
    trace = ft_simulate(ft, stim, RngSpec(1), plan)
    assert [s.miscompare for s in trace.steps if s.phase == 2] == \
        [1, 0, 1, 1]
    assert not trace.permanent_fault_suspected


def test_single_transient_campaign_small():
    n, ft = _ft_and2()
    stim = Stimulus.uniform(40, seed=8)
    wires = [g.out for g in n.gates]
    for replica in range(ft.design.copy_count):
        for wire in wires:
            for value in (0, 1):
                plan = FaultPlan((FaultInjection(11, replica, wire, value),))
                trace = ft_simulate(ft, stim, RngSpec(9), plan)
                assert trace.clean, (replica, wire, value)


def test_fault_plan_validation():
    _, ft = _ft_maj9()
    for replica in (4, 5, -1):
        with pytest.raises(FaultPlanError) as e:
            FaultPlan((FaultInjection(0, replica, "y", 1),)).validate(ft)
        assert str(e.value) == "unknown replica %d" % replica
    FaultPlan((FaultInjection(0, 3, "y", 1),)).validate(ft)
    with pytest.raises(FaultPlanError, match="not a gate-driven"):
        FaultPlan((FaultInjection(0, 0, "x1", 1),)).validate(ft)
    with pytest.raises(FaultPlanError, match="not a gate-driven"):
        FaultPlan((FaultInjection(0, 0, "__r1", 1),)).validate(ft)
    with pytest.raises(FaultPlanError, match="single-fault"):
        FaultPlan((FaultInjection(3, 0, "y", 1),
                   FaultInjection(3, 1, "y", 1))).validate(ft)
    with pytest.raises(FaultPlanError, match="value"):
        FaultPlan((FaultInjection(0, 0, "y", 2),)).validate(ft)
    with pytest.raises(FaultPlanError, match="negative"):
        FaultPlan((FaultInjection(-1, 0, "y", 1),)).validate(ft)


def test_fault_plan_json_roundtrip(tmp_path):
    plan = FaultPlan((FaultInjection(17, 0, "y", 1),
                      FaultInjection(20, 2, "t3", 0)))
    doc = plan.to_json()
    assert doc[0] == {"cycle": 17, "replica": 0, "wire": "y", "value": 1}
    p = tmp_path / "plan.json"
    import json
    p.write_text(json.dumps(doc))
    assert FaultPlan.from_file(p) == plan
    assert FaultPlan(list(plan.injections)) == plan


def test_fault_at_last_cycle_still_committed():
    _, ft = _ft_and2()
    stim = from_vectors([(1, 1)] * 10)
    # the fault may or may not fire depending on r at step 9; both paths
    # must end with a full committed stream
    plan = FaultPlan((FaultInjection(9, 0, "y", 0),))
    trace = ft_simulate(ft, stim, RngSpec(11), plan)
    assert len(trace.committed) == 10
    assert trace.clean


def test_voter_majority_truth_table():
    voter = parse_netlist(
        "module voter\ninput a b c\noutput v\n"
        "and vab a b\nand vac a c\nand vbc b c\nor v vab vac vbc\nend")
    ev = Evaluator(voter)
    for x in range(8):
        a, b, c = (x >> 2) & 1, (x >> 1) & 1, x & 1
        assert ev.run({"a": a, "b": b, "c": c})["v"] == \
            (1 if a + b + c >= 2 else 0)


def test_trace_csv_export(tmp_path):
    _, ft = _ft_and2()
    plan = FaultPlan((FaultInjection(2, 0, "y", 0),))
    trace = ft_simulate(ft, from_vectors([(1, 1)] * 5), RngSpec(0),
                        plan)
    out = tmp_path / "ft.csv"
    trace.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,phase,logical_cycle,e,r,miscompare")
    assert len(lines) == 1 + len(trace.steps)


def _bit_stream(spec):
    """The random stream one bit at a time, LSB-first within each word."""
    for w in words(spec):
        for i in range(64):
            yield (w >> i) & 1


def _scalar_ft_simulate(ft, stim, rng, faults=None):
    """Reference stepper: every protocol step is one one-lane evaluation,
    drawing the random bit from the stream as the step runs; a step with a
    fault evaluates the design stuck at the forced value instead."""
    faults = faults or FaultPlan()
    faults.validate(ft)
    count, cols = stim.bound(len(ft.source.inputs))
    rows = [{w: (c >> cyc) & 1 for w, c in zip(ft.source.inputs, cols)}
            for cyc in range(count)]

    design_ev = Evaluator(ft.design.netlist)
    ref_ev = Evaluator(ft.source)
    reference = []
    for row in rows:
        v = ref_ev.run(row)
        reference.append({o: v[o] for o in ft.source.outputs})

    r_bits = _bit_stream(rng)
    steps = []
    committed = [None] * count
    outputs = ft.source.outputs
    r_wire = ft.design.random_wires[0]

    phase = 1
    lc = 0
    step = 0
    saved = None
    replay_faults = 0
    suspected = False
    suspected_at = None

    while lc < count or phase == 2:
        inj = next((i for i in faults.injections if i.cycle == step), None)
        ev = design_ev
        if inj is not None:
            ev = stuck_at(ft.design.netlist, replica_wire(
                inj.replica, inj.wire), inj.value).evaluator
        if phase == 1:
            x = rows[lc]
            r = next(r_bits)
            v = ev.run(dict(x, **{r_wire: r}))
            m = {o: v[selected_wire(o)] for o in outputs}
            if v[MISCOMPARE_WIRE]:
                saved = (x, r, lc)
                steps.append(FTStep(step, 1, lc, 1, r, 1, None, m))
                phase = 2
            else:
                committed[lc] = m
                steps.append(FTStep(step, 1, lc, 0, r, 0, m, None))
                lc += 1
        else:
            x, r, saved_lc = saved
            v = ev.run(dict(x, **{r_wire: r}))
            vote = {o: v[VOTE_PREFIX + o] for o in outputs}
            committed[saved_lc] = vote
            mis = v[MISCOMPARE_WIRE]
            if mis:
                replay_faults += 1
                if replay_faults >= REPLAY_LIMIT and not suspected:
                    suspected = True
                    suspected_at = step
            else:
                replay_faults = 0
            steps.append(FTStep(step, 2, saved_lc, 0, r, mis, vote, None))
            saved = None
            phase = 1
            lc = saved_lc + 1
        step += 1

    return FTTrace(steps, committed, reference, suspected_at)


@lru_cache(maxsize=None)
def _oracle_design(name):
    if name == "and2":
        return _ft_and2()
    if name == "maj9-twin-stuck":
        # copy 0's twin stuck at 0: __e is set in the fault-free pass itself
        m9, ft = _oracle_design("maj9")
        return m9, FTDesign(PartitionedDesign(stuck_at(
            ft.design.netlist, replica_wire(2, "y"), 0)), m9)
    n = fixture_generate(name)
    return n, transform_ft(n, RecordConfig.checkerboard(n, 1))


@st.composite
def _oracle_cases(draw):
    name = draw(st.sampled_from(["and2", "maj9", "adder4",
                                 "maj9-twin-stuck"]))
    n, ft = _oracle_design(name)
    cycles = draw(st.integers(1, 60))
    vectors = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=len(n.inputs),
                 max_size=len(n.inputs)),
        min_size=cycles, max_size=cycles))
    wires = [g.out for g in n.gates]
    fault = st.tuples(st.integers(0, 3), st.sampled_from(wires),
                      st.integers(0, 1))
    by_step = {}
    # up to three faults each held over a run of steps (replay chains, the
    # replay-limit flag and its reset), then scattered transients
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 2 * cycles))
        held = draw(fault)
        for step in range(start, start + draw(st.integers(1, 10))):
            by_step.setdefault(step, held)
    for step in draw(st.lists(st.integers(0, 2 * cycles + 4), max_size=10,
                              unique=True)):
        by_step.setdefault(step, draw(fault))
    plan = FaultPlan(tuple(FaultInjection(step, *f)
                           for step, f in sorted(by_step.items())))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    return ft, from_vectors(vectors), RngSpec(seed), plan


@settings(max_examples=150, deadline=None)
@given(_oracle_cases())
def test_word_parallel_matches_scalar_oracle(case):
    ft, stim, rng, plan = case
    got = ft_simulate(ft, stim, rng, plan)
    want = _scalar_ft_simulate(ft, stim, rng, plan)
    assert len(got.steps) == len(want.steps)  # before any step is built
    assert [asdict(s) for s in got.steps] == [asdict(s) for s in want.steps]
    assert got.committed == want.committed
    assert got.reference == want.reference
    assert got.permanent_fault_suspected == want.permanent_fault_suspected
    assert got.suspected_at_step == want.suspected_at_step
    assert got == want and repr(got) == repr(want)


def test_phase_one_stays_word_parallel(monkeypatch):
    _, ft = _ft_maj9()
    calls, evaluated = [], []
    run, evaluate_ops = Evaluator.run, netlist._evaluate

    def counted(self, values, mask=1):
        calls.append(mask.bit_length())
        return run(self, values, mask=mask)

    def counted_ops(ops, v, mask):
        evaluated.append(len(ops))
        return evaluate_ops(ops, v, mask)

    stim = Stimulus.uniform(1000, seed=0)
    clean = simulate(ft.design, stim, RngSpec(1)).wires
    monkeypatch.setattr(Evaluator, "run", counted)
    monkeypatch.setattr(netlist, "_evaluate", counted_ops)
    # the reference pass and the packed FT pass, once per design,
    # stimulus and seed
    ft_simulate(ft, stim, RngSpec(1))
    assert calls == [1000, 1000]
    calls.clear()
    ft_simulate(ft, stim, RngSpec(1))
    assert calls == []

    # a step where a fault flips its wire re-evaluates the forced wire's
    # fanout cone only; a force that keeps the wire's value evaluates
    # nothing, and a replay with no fault reads the packed pass
    plan = FaultPlan(tuple(FaultInjection(c, c % 3, "y", (c // 3) % 2)
                           for c in range(5, 400, 7)))
    evaluated.clear()
    trace = ft_simulate(ft, stim, RngSpec(1), plan)
    injected = {i.cycle for i in plan.injections}
    assert any(s.phase == 2 and s.step not in injected for s in trace.steps)
    assert calls == []
    ev = ft.design.netlist.evaluator
    flipped = [i for i in plan.injections if i.value != (clean[replica_wire(
        i.replica, i.wire)] >> trace.steps[i.cycle].logical_cycle) & 1]
    cones = [len(ev.fanout(replica_wire(i.replica, i.wire))) for i in flipped]
    assert 0 < len(flipped) < len(plan.injections)
    assert evaluated == cones
    assert max(cones) * 10 < len(ft.design.netlist.gates)

    # another seed or another stimulus is another fault-free pass
    for other_stim, other_rng in ((stim, RngSpec(2)),
                                  (Stimulus.uniform(1000, seed=1),
                                   RngSpec(2))):
        calls.clear()
        ft_simulate(ft, other_stim, other_rng)
        assert calls == [1000, 1000]


def test_clean_spans_build_no_step_until_read(monkeypatch):
    # a clean phase-1 span is one record entry: no FTStep is built for it
    # until the steps are read, and then once
    _, ft = _ft_maj9()
    stim, rng = Stimulus.uniform(40, seed=6), RngSpec(7)
    clean = simulate(ft.design, stim, rng).wires
    lane = 12
    r = (clean[ft.design.random_wires[0]] >> lane) & 1
    one_flip = FaultPlan((FaultInjection(
        lane, r, "y", 1 - ((clean[replica_wire(r, "y")] >> lane) & 1)),))
    built, init = [], FTStep.__init__

    def counted(self, step, *rest):
        built.append(step)
        init(self, step, *rest)

    monkeypatch.setattr(FTStep, "__init__", counted)
    for plan, stepped, count in ((None, [], 40),
                                 (one_flip, [lane, lane + 1], 41)):
        built.clear()
        trace = ft_simulate(ft, stim, rng, plan)
        assert built == stepped  # the flipped step and its replay only
        assert len(trace.steps) == count and built == stepped
        first = trace.steps[0]
        assert sorted(built) == list(range(count))
        assert [s.step for s in trace.steps] == list(range(count))
        assert trace.steps[0] is first
        assert all(a is b for a, b in zip(trace.steps, list(trace.steps)))
        assert len(built) == count
        for s in trace.steps:
            if s.phase == 1 and not s.e:
                assert s.committed is trace.committed[s.logical_cycle]


def _counted_evaluate(monkeypatch):
    evaluated, evaluate_ops = [], netlist._evaluate
    monkeypatch.setattr(netlist, "_evaluate", lambda ops, v, mask: (
        evaluated.append(len(ops)), evaluate_ops(ops, v, mask))[1])
    return evaluated


def _same_trace(got, want):
    assert [asdict(s) for s in got.steps] == [asdict(s) for s in want.steps]
    assert got.committed == want.committed
    assert got.reference == want.reference
    assert got.suspected_at_step == want.suspected_at_step


def test_force_of_the_fault_free_value_is_a_clean_step(monkeypatch):
    # every copy and fault site of maj9 FT, forced at cycle 17 to the value
    # the fault-free pass already has there: no fault, nothing evaluated
    _, ft = _ft_maj9()
    stim, rng = Stimulus.uniform(32, seed=4), RngSpec(5)
    clean = simulate(ft.design, stim, rng).wires
    unforced = ft_simulate(ft, stim, rng)
    evaluated = _counted_evaluate(monkeypatch)
    for k in range(ft.design.copy_count):
        for w in sorted(ft.fault_sites):
            value = (clean[replica_wire(k, w)] >> 17) & 1
            plan = FaultPlan((FaultInjection(17, k, w, value),))
            _same_trace(ft_simulate(ft, stim, rng, plan), unforced)
    assert evaluated == []


def _keep(clean, lane, step, k, w):
    """A force at step that holds copy k's w at its fault-free lane value."""
    return FaultInjection(step, k, w, (clean[replica_wire(k, w)] >> lane) & 1)


@pytest.mark.parametrize("name", ["maj9", "maj9-twin-stuck"])
def test_no_op_force_at_every_step_changes_nothing(monkeypatch, name):
    # the fault-free value at every step, replays and __e lanes included
    _, ft = _oracle_design(name)
    stim, rng = Stimulus.uniform(40, seed=6), RngSpec(7)
    clean = simulate(ft.design, stim, rng).wires
    unforced = ft_simulate(ft, stim, rng)
    assert any(s.phase == 2 for s in unforced.steps) == (name != "maj9")
    plan = FaultPlan(tuple(_keep(clean, s.logical_cycle, s.step, s.step % 4,
                                 "y") for s in unforced.steps))
    evaluated = _counted_evaluate(monkeypatch)
    got = ft_simulate(ft, stim, rng, plan)
    assert evaluated == []
    _same_trace(got, unforced)
    _same_trace(got, _scalar_ft_simulate(ft, stim, rng, plan))


def test_clean_span_runs_through_no_op_forces(monkeypatch):
    # no-op forces inside a clean span, then a force on the selected copy
    # that flips y and a no-op force at its replay: the span ends at the
    # flip, and only the flipped wire's cone is evaluated
    _, ft = _ft_maj9()
    stim, rng = Stimulus.uniform(40, seed=6), RngSpec(7)
    clean = simulate(ft.design, stim, rng).wires
    lane = 12
    r = (clean[ft.design.random_wires[0]] >> lane) & 1
    y = replica_wire(r, "y")
    plan = FaultPlan(tuple(_keep(clean, s, s, (s + r) % 4, "y")
                           for s in (3, 5, 6, 7, 11))
                     + (FaultInjection(lane, r, "y",
                                       1 - ((clean[y] >> lane) & 1)),
                        _keep(clean, lane, lane + 1, r, "y"),
                        _keep(clean, lane + 1, lane + 2, 1 - r, "y")))
    ft_simulate(ft, stim, rng)  # the fault-free pass, shared by every plan
    evaluated = _counted_evaluate(monkeypatch)
    got = ft_simulate(ft, stim, rng, plan)
    assert evaluated == [len(ft.design.netlist.evaluator.fanout(y))]
    assert got.steps[lane].e == 1
    assert (got.steps[lane + 1].phase, got.steps[lane + 1].logical_cycle) \
        == (2, lane)
    assert got.clean and len(got.steps) == 41
    _same_trace(got, _scalar_ft_simulate(ft, stim, rng, plan))


@pytest.mark.parametrize("name", ["maj9", "adder4"])
def test_fanout_of_every_fault_site_equals_the_scan(name):
    _, ft = _oracle_design(name)
    ev = ft.design.netlist.evaluator
    for k in range(ft.design.copy_count):
        for w in sorted(ft.fault_sites):
            wire = replica_wire(k, w)
            assert ev.fanout(wire) == scanned_fanout(ev, wire), wire


def _plan_with_replays():
    # copy 2's output (copy 0's twin) stuck at 0 for ten steps, then two
    # more faults
    return FaultPlan(tuple(FaultInjection(c, 2, "y", 0) for c in range(3, 13))
                     + (FaultInjection(20, 0, "y", 1),
                        FaultInjection(21, 1, "y", 0)))


def test_memo_never_goes_stale():
    _, ft = _ft_maj9()
    stims = (Stimulus.uniform(40, seed=2),
             from_vectors([[(c >> b) & 1 for b in range(9)]
                           for c in range(0, 400, 13)]))
    for _ in range(2):
        for stim in stims:
            for rng in (RngSpec(3), RngSpec(4)):
                for plan in (None, _plan_with_replays()):
                    fresh = _ft_maj9()[1]
                    assert (ft_simulate(ft, stim, rng, plan)
                            == ft_simulate(fresh, stim, rng, plan))


def test_memo_hit_draws_no_stimulus(monkeypatch):
    _, ft = _ft_maj9()
    bound, calls = Stimulus.bound, []

    def counted(self, width):
        calls.append(width)
        return bound(self, width)

    monkeypatch.setattr(Stimulus, "bound", counted)
    stim, rng = Stimulus.uniform(32, seed=5), RngSpec(6)
    first = ft_simulate(ft, stim, rng, _plan_with_replays())
    drawn = len(calls)
    assert drawn > 0
    # an equal uniform stimulus in another object is the same key
    again = ft_simulate(ft, Stimulus.uniform(32, seed=5), rng,
                        _plan_with_replays())
    assert len(calls) == drawn and again == first
    ft_simulate(ft, Stimulus.uniform(32, seed=7), rng)
    assert len(calls) > drawn


ROW_WRITES = (("__setitem__", ("y", 0)), ("__delitem__", ("y",)),
              ("__ior__", ({"y": 0},)), ("clear", ()), ("pop", ("y",)),
              ("popitem", ()), ("setdefault", ("z", 0)),
              ("update", ({"y": 0},)))


def test_trace_rows_are_read_only():
    _, ft = _ft_maj9()
    stim, rng = Stimulus.uniform(40, seed=2), RngSpec(3)
    plan = _plan_with_replays()
    trace = ft_simulate(ft, stim, rng, plan)
    buffered = [s.buffered for s in trace.steps if s.buffered is not None]
    votes = [s.committed for s in trace.steps if s.phase == 2]
    assert buffered and votes
    for row in (trace.committed[0], trace.reference[0], buffered[0],
                votes[0]):
        before = dict(row)
        for name, args in ROW_WRITES:
            with pytest.raises(TypeError, match=r"dict\(row\)"):
                getattr(row, name)(*args)
        assert row == before
        mutable = dict(row)
        assert type(mutable) is dict and mutable == row
        mutable["y"] ^= 1
        assert mutable != row
    for row in (trace.committed + trace.reference + buffered
                + [s.committed for s in trace.steps if s.committed]):
        with pytest.raises(TypeError):
            row["y"] = 0
    trace.steps[0].r ^= 1
    again = ft_simulate(ft, stim, rng, plan)
    assert again == ft_simulate(_ft_maj9()[1], stim, rng, plan)
    assert again != trace


def test_calls_on_one_memo_share_their_rows():
    _, ft = _ft_maj9()
    stim, rng = Stimulus.uniform(40, seed=2), RngSpec(3)
    a = ft_simulate(ft, stim, rng)
    b = ft_simulate(ft, stim, rng, _plan_with_replays())
    c = ft_simulate(ft, stim, rng)
    assert a.committed is not c.committed and a.reference is not c.reference
    assert all(x is y for x, y in zip(a.committed, c.committed))
    assert all(x is y for x, y in zip(a.reference, b.reference))
    # the plan's first fault is at step 3: lanes 0..2 are one clean span
    assert all(a.committed[i] is b.committed[i] for i in range(3))
    assert b.steps[1].committed is b.committed[1]


@pytest.mark.parametrize("read_steps", [False, True])
def test_trace_round_trips_through_pickle_and_deepcopy(read_steps):
    _, ft = _ft_maj9()
    stim, rng = Stimulus.uniform(40, seed=2), RngSpec(3)
    trace = ft_simulate(ft, stim, rng, _plan_with_replays())
    if read_steps:
        assert trace.steps[0].step == 0
    for twin in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert twin == trace and repr(twin) == repr(trace)
        assert [asdict(s) for s in twin.steps] == [asdict(s)
                                                   for s in trace.steps]
        assert twin.committed[0] is not trace.committed[0]
        with pytest.raises(TypeError):
            twin.committed[0]["y"] = 0


@st.composite
def _maj9_multi_fault_plans(draw):
    m9, ft = _oracle_design("maj9")
    cycles = draw(st.integers(1, 40))
    fault = st.tuples(st.integers(0, 3),
                      st.sampled_from([g.out for g in m9.gates]),
                      st.integers(0, 1))
    by_step = {}
    # a fault held over 2k steps can miscompare k replays in a row, so a
    # hold of up to 2 * REPLAY_LIMIT + 2 steps reaches the replay limit
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, 2 * cycles))
        held = draw(fault)
        for step in range(start, start + draw(
                st.integers(1, 2 * REPLAY_LIMIT + 2))):
            by_step.setdefault(step, held)
    plan = FaultPlan(tuple(FaultInjection(step, *f)
                           for step, f in sorted(by_step.items())))
    stim = Stimulus.uniform(cycles, seed=draw(st.integers(0, 2 ** 32)))
    return ft, stim, RngSpec(draw(st.integers(0, 2 ** 64 - 1))), plan


@settings(max_examples=100, deadline=None)
@given(_maj9_multi_fault_plans())
def test_steps_are_the_committed_cycles_plus_the_replays(case):
    ft, stim, rng, plan = case
    trace = ft_simulate(ft, stim, rng, plan)
    steps = len(trace.steps)  # before any step is built
    assert len(trace.committed) == stim.count
    assert steps == len(trace.committed) + sum(s.phase == 2
                                               for s in trace.steps)


def test_ft_design_is_frozen():
    _, ft = _ft_maj9()
    with pytest.raises(FrozenInstanceError):
        ft.design = ft.design

