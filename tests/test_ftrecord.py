from dataclasses import asdict
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from recordkit.fixtures import fixture_generate
from recordkit.netlist import Evaluator, parse_netlist
from recordkit.recordize import (MISCOMPARE_WIRE, RecordConfig,
                                 partition_check, replica_wire)
from recordkit.rng import RngSpec, words
from recordkit.ftrecord import (REPLAY_LIMIT, FaultInjection, FaultPlan,
                                FaultPlanError, FTStep, FTTrace, ft_simulate,
                                transform_ft)
from recordkit.sim import Stimulus


def _ft_maj9():
    m9 = fixture_generate("maj9")
    return m9, transform_ft(m9, RecordConfig.checkerboard(m9, 1))


def _ft_and2():
    n = parse_netlist("module and2\ninput a b\noutput y\nand y a b\nend")
    return n, transform_ft(n, RecordConfig.checkerboard(n, 1))


def test_three_replicas_built():
    m9, ft = _ft_maj9()
    replicas = {g.replica for g in ft.design.untrusted_gates()}
    assert replicas == {0, 1, 2}
    for k in (0, 1, 2):
        assert len(ft.design.replica_gates(k)) == len(m9.gates)


def test_partition_check_passes():
    _, ft = _ft_maj9()
    assert partition_check(ft.design).ok


def test_rejects_two_groups():
    m9 = fixture_generate("maj9")
    with pytest.raises(ValueError, match="one random bit"):
        transform_ft(m9, RecordConfig.checkerboard(m9, 2))


def test_spare_mirrors_selected_exhaustively():
    # all 2^(9+1) combinations: spare output equals selected output, no
    # miscompare ever
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
    v = Evaluator(ft.design.netlist).run(values, mask=mask)
    assert v[ft.spare_outputs["y"]] == v[ft.selected_outputs["y"]]
    assert v[MISCOMPARE_WIRE] == 0


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


def test_repeat_injection_flags_permanent_suspect():
    _, ft = _ft_and2()
    stim = Stimulus.from_vectors([(1, 1)] * 50)
    # stuck-at-0 on the output wire of replica 0 at every step; with x=11
    # the function value is 1, so whenever replica 0 is selected this
    # miscompares, and it persists through every replay
    plan = FaultPlan(tuple(FaultInjection(c, 0, "y", 0) for c in range(80)))
    trace = ft_simulate(ft, stim, RngSpec(7), plan)
    assert trace.permanent_fault_suspected
    assert trace.suspected_at_step is not None
    replays = [s for s in trace.steps if s.phase == 2]
    assert len(replays) >= 3


def test_clean_replay_resets_replay_limit_count():
    _, ft = _ft_and2()
    stim = Stimulus.from_vectors([(1, 1)] * 30)
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
    for replica in (0, 1, 2):
        for wire in wires:
            for value in (0, 1):
                plan = FaultPlan((FaultInjection(11, replica, wire, value),))
                trace = ft_simulate(ft, stim, RngSpec(9), plan)
                assert trace.clean, (replica, wire, value)


def test_fault_plan_validation():
    _, ft = _ft_maj9()
    with pytest.raises(FaultPlanError, match="unknown replica"):
        FaultPlan((FaultInjection(0, 5, "y", 1),)).validate(ft)
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
    assert plan.at(20) == plan.injections[1]
    assert plan.at(18) is None


def test_fault_at_last_cycle_still_committed():
    _, ft = _ft_and2()
    stim = Stimulus.from_vectors([(1, 1)] * 10)
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


def test_spare_processes_selected_inputs_every_cycle():
    # the confidentiality tension: in normal operation the spare sees the
    # same input vector as the selected copy
    m9, ft = _ft_maj9()
    from recordkit.sim import simulate
    t = simulate(ft.design, Stimulus.uniform(256, seed=12), RngSpec(13))
    for c in range(256):
        r = t.value("__r1", c)
        sel = ft.design.replica_input_wires(r)
        for i in m9.inputs:
            assert t.value(ft.spare_inputs[i], c) == t.value(sel[i], c)


def test_trace_csv_export(tmp_path):
    _, ft = _ft_and2()
    plan = FaultPlan((FaultInjection(2, 0, "y", 0),))
    trace = ft_simulate(ft, Stimulus.from_vectors([(1, 1)] * 5), RngSpec(0),
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
    drawing the random bit from the stream as the step runs."""
    faults = faults or FaultPlan()
    faults.validate(ft)
    count, cols = stim.bound(len(ft.source.inputs))
    rows = [{w: (c >> cyc) & 1 for w, c in zip(ft.source.inputs, cols)}
            for cyc in range(count)]

    ev = Evaluator(ft.design.netlist)
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
        force = None
        if inj is not None:
            force = {replica_wire(inj.replica, inj.wire): inj.value}
        if phase == 1:
            x = rows[lc]
            r = next(r_bits)
            v = ev.run(dict(x, **{r_wire: r}), force=force)
            m = {o: v[ft.selected_outputs[o]] for o in outputs}
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
            v = ev.run(dict(x, **{r_wire: r}), force=force)
            vote = {o: v[ft.voter_outputs[o]] for o in outputs}
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

    return FTTrace(steps, committed, reference, suspected, suspected_at)


@lru_cache(maxsize=None)
def _oracle_design(name):
    if name == "and2":
        return _ft_and2()
    n = fixture_generate(name)
    return n, transform_ft(n, RecordConfig.checkerboard(n, 1))


@st.composite
def _oracle_cases(draw):
    name = draw(st.sampled_from(["and2", "maj9", "adder4"]))
    n, ft = _oracle_design(name)
    cycles = draw(st.integers(1, 60))
    vectors = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=len(n.inputs),
                 max_size=len(n.inputs)),
        min_size=cycles, max_size=cycles))
    wires = [g.out for g in n.gates]
    fault = st.tuples(st.integers(0, 2), st.sampled_from(wires),
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
    return ft, Stimulus.from_vectors(vectors), RngSpec(seed), plan


@settings(max_examples=150, deadline=None)
@given(_oracle_cases())
def test_word_parallel_matches_scalar_oracle(case):
    ft, stim, rng, plan = case
    got = ft_simulate(ft, stim, rng, plan)
    want = _scalar_ft_simulate(ft, stim, rng, plan)
    assert [asdict(s) for s in got.steps] == [asdict(s) for s in want.steps]
    assert got.committed == want.committed
    assert got.reference == want.reference
    assert got.permanent_fault_suspected == want.permanent_fault_suspected
    assert got.suspected_at_step == want.suspected_at_step


def test_phase_one_stays_word_parallel(monkeypatch):
    _, ft = _ft_maj9()
    calls = []
    run = Evaluator.run

    def counted(self, values, mask=1, force=None):
        calls.append(mask.bit_length())
        return run(self, values, mask=mask, force=force)

    monkeypatch.setattr(Evaluator, "run", counted)
    stim = Stimulus.uniform(1000, seed=0)
    ft_simulate(ft, stim, RngSpec(1))
    assert calls == [1000, 1000]

    # the reference pass, the packed FT pass, then one lane per injected
    # or replayed step
    plan = FaultPlan(tuple(FaultInjection(c, c % 3, "y", (c // 3) % 2)
                           for c in range(5, 400, 7)))
    calls.clear()
    trace = ft_simulate(ft, stim, RngSpec(1), plan)
    narrow = [s for s in trace.steps
              if s.phase == 2 or plan.at(s.step) is not None]
    assert any(s.phase == 2 for s in narrow)
    assert calls == [1000, 1000] + [1] * len(narrow)

