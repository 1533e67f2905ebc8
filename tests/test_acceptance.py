"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
as they happen (pytest captures stdout otherwise).
"""

import math
import time

from reference_readers import from_vectors

from recordkit.demo import (ImageDemoConfig, demo_image, median_filter,
                            salt_pepper, synthetic_scene)
from recordkit.demo import _NOISE_TAG
from recordkit.fixtures import fixture_generate
from recordkit.ftrecord import FaultInjection, FaultPlan, ft_simulate, transform_ft
from recordkit.netlist import Gate, Netlist, NetlistError, parse_netlist
from recordkit.pgm import read_pgm
from recordkit.recordize import RecordConfig, transform, untrusted_zone_text
from recordkit.rng import RngSpec, derive
from recordkit.sim import Stimulus, simulate, simulate_netlist, verify_equivalence
from recordkit.cost import area, depth, switching
from recordkit.trojan import TriggerSpec, mutual_information, tap, trigger_experiment

INV = parse_netlist("module inv\ninput a\noutput y\nnot y a\nend")
AND2 = parse_netlist("module and2\ninput a b\noutput y\nand y a b\nend")


def _report(num, ok, detail):
    print("CRITERION %2d: %s - %s" % (num, "PASS" if ok else "FAIL", detail),
          flush=True)
    assert ok, detail


def _fixtures_g1():
    return [("inverter", INV), ("and2", AND2),
            ("adder4", fixture_generate("adder4")),
            ("maj9", fixture_generate("maj9")),
            ("aes-sbox", fixture_generate("aes-sbox"))]


def test_criterion_1_equivalence_single_bit():
    t0 = time.time()
    cases = []
    for name, n in _fixtures_g1():
        d = transform(n, RecordConfig.checkerboard(n, 1))
        v = verify_equivalence(n, d, mode="exhaustive")
        cases.append((name, v.passed, v.cases))
    ok = all(p for _, p, _ in cases)
    largest = max(c for _, _, c in cases)
    _report(1, ok, "exhaustive equivalence G=1 on %d fixtures, largest "
            "sweep %d cases, %.2fs" % (len(cases), largest,
                                       time.time() - t0))


def test_criterion_2_equivalence_two_bits():
    t0 = time.time()
    results = []
    for name in ("maj9", "aes-sbox"):
        n = fixture_generate(name)
        d = transform(n, RecordConfig.checkerboard(n, 2))
        v = verify_equivalence(n, d, mode="exhaustive")
        results.append((name, v.passed, v.cases))
    ok = all(p for _, p, _ in results)
    _report(2, ok, "exhaustive equivalence G=2 checkerboard on maj9 "
            "(%d cases) and aes-sbox (%d cases), %.2fs"
            % (results[0][2], results[1][2], time.time() - t0))


def _uniform_trace(groups, cycles=100000):
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, groups))
    t = simulate(d, Stimulus.uniform(cycles, seed=100 + groups),
                 RngSpec(200 + groups))
    return m9, d, t


def test_criterion_3_one_time_pad():
    t0 = time.time()
    worst = 0.0
    for groups in (1, 2):
        m9, d, t = _uniform_trace(groups)
        for i in d.config.randomized_inputs:
            mi = mutual_information(t.wires[d.encode_wire(i)], t.wires[i],
                                    t.cycles)
            worst = max(worst, mi)
    ok = worst < 0.01
    _report(3, ok, "MI(encoded; input) at 1e5 uniform cycles, worst %.2e "
            "bits (< 0.01), %.2fs" % (worst, time.time() - t0))


def test_criterion_4_pairwise_residual_leak():
    t0 = time.time()
    m9, d1, t1 = _uniform_trace(1)
    names = list(d1.config.randomized_inputs)
    same_min = 1.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            guess = t1.wires[d1.encode_wire(names[i])] ^ \
                t1.wires[d1.encode_wire(names[j])]
            truth = t1.wires[names[i]] ^ t1.wires[names[j]]
            same_min = min(same_min,
                           mutual_information(guess, truth, t1.cycles))

    m9, d2, t2 = _uniform_trace(2)
    g = d2.config.group_assignment
    cross_max, same2_min = 0.0, 1.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            guess = t2.wires[d2.encode_wire(names[i])] ^ \
                t2.wires[d2.encode_wire(names[j])]
            truth = t2.wires[names[i]] ^ t2.wires[names[j]]
            mi = mutual_information(guess, truth, t2.cycles)
            if g[names[i]] == g[names[j]]:
                same2_min = min(same2_min, mi)
            else:
                cross_max = max(cross_max, mi)
    ok = same_min > 0.99 and cross_max < 0.01 and same2_min > 0.99
    _report(4, ok, "G=1 same-group pair MI >= %.4f (> 0.99); G=2 "
            "cross-group <= %.2e (< 0.01), %.2fs"
            % (same_min, cross_max, time.time() - t0))


def test_criterion_5_partition_closure():
    t0 = time.time()
    clean = True
    for name, n in _fixtures_g1():
        for groups in (1, 2):
            if groups > len(n.inputs):
                continue
            try:  # construction runs the closure rule
                transform(n, RecordConfig.checkerboard(n, groups))
            except NetlistError:
                clean = False

    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    mutations = []
    for wire in ("__r1", "x1"):
        gates = list(d.netlist.gates)
        for i, g in enumerate(gates):
            if g.zone == "untrusted" and g.replica == 0:
                gates[i] = Gate(g.kind, g.out, (wire,) + g.ins[1:], g.zone,
                                g.replica)
                break
        from dataclasses import replace
        try:
            replace(d, netlist=Netlist(d.netlist.name, d.netlist.inputs,
                                       d.netlist.outputs, tuple(gates)))
            mutations.append(0)
        except NetlistError as e:  # one "'<gate>' reads ..." per violation
            mutations.append(str(e).count(" reads "))
    ok = clean and mutations == [1, 1]
    _report(5, ok, "zero violations on every transform output; each "
            "mutation yields exactly one violation %s, %.2fs"
            % (mutations, time.time() - t0))


def test_criterion_6_fault_tolerance_campaign():
    t0 = time.time()
    m9 = fixture_generate("maj9")
    ft = transform_ft(m9, RecordConfig.checkerboard(m9, 1))
    stim = Stimulus.uniform(100, seed=300)
    rng = RngSpec(301)

    clean_run = ft_simulate(ft, stim, rng)
    no_false_alarms = all(s.e == 0 for s in clean_run.steps)
    long_clean = ft_simulate(ft, Stimulus.uniform(10000, seed=302),
                             RngSpec(303))
    no_false_alarms = no_false_alarms and \
        all(s.e == 0 for s in long_clean.steps)

    wires = [g.out for g in m9.gates]
    total = 0
    failures = 0
    for replica in range(ft.design.copy_count):
        for wire in wires:
            for value in (0, 1):
                plan = FaultPlan((FaultInjection(17, replica, wire, value),))
                trace = ft_simulate(ft, stim, rng, plan)
                total += 1
                if not trace.clean:
                    failures += 1
    ok = failures == 0 and no_false_alarms
    _report(6, ok, "%d/%d single-transient campaigns masked (replica x "
            "wire x value at cycle 17 of 100); no false alarms over 1e4 "
            "clean cycles, %.1fs" % (total - failures, total,
                                     time.time() - t0))


def test_criterion_7_trigger_disruption():
    t0 = time.time()
    results = []
    for groups, expected in ((1, 0.5), (2, 0.25)):
        m9 = fixture_generate("maj9")
        d = transform(m9, RecordConfig.checkerboard(m9, groups))
        bus = d.layout.buses[0]
        watched = tuple(bus[i] for i in d.source_inputs)
        pattern = (1, 0, 1, 1, 0, 0, 1, 0, 1)
        stim = from_vectors([pattern] * 10000)
        stats = trigger_experiment(d, TriggerSpec(watched, pattern), stim,
                                   RngSpec(400 + groups))
        sigma = math.sqrt(expected * (1 - expected) / 10000)
        results.append((stats.analytic_rate == expected,
                        abs(stats.rate - expected) < 3 * sigma,
                        stats.rate))
    ok = all(a and b for a, b, _ in results)
    _report(7, ok, "firing rates G=1 %.4f (expect 0.5), G=2 %.4f (expect "
            "0.25), analytic rates exact, within 3 sigma at 1e4 cycles, "
            "%.2fs" % (results[0][2], results[1][2], time.time() - t0))


def test_criterion_8_cost_proxies():
    t0 = time.time()
    sb = fixture_generate("aes-sbox")
    d1 = transform(sb, RecordConfig.checkerboard(sb, 1))
    ratio = area(d1.netlist) / area(sb)
    in_bracket = 2.0 <= ratio <= 3.0

    power_law = True
    for name, n in _fixtures_g1():
        for groups in (1, 2):
            if groups > len(n.inputs):
                continue
            d = transform(n, RecordConfig.checkerboard(n, groups))
            power_law = power_law and (
                area(d.netlist, zone="untrusted") == (1 << groups) * area(n))

    depth_law = True
    for name, n in [("maj9", fixture_generate("maj9")), ("aes-sbox", sb)]:
        base = depth(n)
        dd1 = transform(n, RecordConfig.checkerboard(n, 1))
        dd2 = transform(n, RecordConfig.checkerboard(n, 2))
        depth_law = depth_law and \
            depth(dd1.netlist, outputs=dd1.encoded_outputs) == base + 3 and \
            depth(dd2.netlist, outputs=dd2.encoded_outputs) == base + 4

    # reported, not gated: activity ratio vs the published 3.4x dynamic
    m9 = fixture_generate("maj9")
    dm = transform(m9, RecordConfig.checkerboard(m9, 1))
    stim = Stimulus.uniform(2000, seed=500)
    act_ratio = (switching(simulate(dm, stim, RngSpec(501))).weighted_activity
                 / switching(simulate_netlist(m9, stim)).weighted_activity)

    ok = in_bracket and power_law and depth_law
    _report(8, ok, "aes-sbox G=1 area ratio %.3f in [2.0, 3.0] (reference "
            "2.4x); untrusted area = 2^G x original on all fixtures; depth "
            "delta 3/4; activity ratio %.2f reported unscored (reference "
            "3.4x dynamic, delay <= 11%%), %.2fs"
            % (ratio, act_ratio, time.time() - t0))


def test_criterion_9_image_demo(tmp_path):
    t0 = time.time()
    ordering_ok = True
    f1_ok = True
    cross_ok = True
    enhanced_ok = True
    noise = 0.015
    for seed in range(10):
        scores = {}
        for variant in ("plain", "record1", "record2"):
            out = tmp_path / ("s%d_%s" % (seed, variant))
            res = demo_image(ImageDemoConfig(out_dir=str(out),
                                             variant=variant, seed=seed,
                                             noise=noise))
            scores[variant] = res.scores
            # bit-identical enhanced image, checked against a freshly
            # computed oracle rendering
            noisy = salt_pepper(synthetic_scene(), noise,
                                derive(RngSpec(seed), _NOISE_TAG))
            oracle = median_filter(noisy, 64, 64)
            _w, _h, _m, pixels = read_pgm(res.enhanced_path)
            enhanced_ok = enhanced_ok and \
                pixels == bytes(255 * p for p in oracle)
        ordering_ok = ordering_ok and (
            scores["plain"]["structural"] > scores["record1"]["structural"]
            > scores["record2"]["structural"])
        f1_ok = f1_ok and scores["record1"]["same_group_edge_f1"] > 0.8
        cross_ok = cross_ok and \
            0.45 <= scores["record2"]["cross_group_accuracy"] <= 0.55
    ok = ordering_ok and f1_ok and cross_ok and enhanced_ok
    _report(9, ok, "seeds 0..9: score ordering plain > record1 > record2; "
            "record1 edge F1 > 0.8; record2 cross accuracy in [0.45, 0.55]; "
            "enhanced images bit-identical to the oracle, %.1fs"
            % (time.time() - t0))


def test_criterion_10_rekey():
    t0 = time.time()
    m9 = fixture_generate("maj9")
    d = transform(m9, RecordConfig.checkerboard(m9, 1))
    zone = untrusted_zone_text(d)
    # rekeying is a new stream on the same design
    stim = Stimulus.uniform(5000, seed=600)
    t_a = simulate(d, stim, RngSpec(0))
    t_b = simulate(d, stim, RngSpec(7777))
    zone_same = untrusted_zone_text(d) == zone
    decoded_same = t_a.wires["__z_y"] == t_b.wires["__z_y"]
    leak_a = tap(d, t_a)
    leak_b = tap(d, t_b)
    traces_differ = any(leak_a.wires[w] != leak_b.wires[w]
                        for w in leak_a.wires)
    ok = zone_same and decoded_same and traces_differ
    _report(10, ok, "rekey: untrusted zone byte-identical, decoded outputs "
            "unchanged, leak bitstreams differ across seeds, %.2fs"
            % (time.time() - t0))
