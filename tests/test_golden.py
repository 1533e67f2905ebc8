"""Byte-identity guard: SHA-256 digests of the artifacts a refactor must
not change (transformed netlists, FT netlists and step logs, leak reports,
derived seeds). The digests were computed before the construction code
was consolidated; any drift in a reserved name, gate order or report
field shows up here as a changed digest."""

import hashlib
import json
from dataclasses import asdict

import pytest

from recordkit.fixtures import fixture_generate
from recordkit.ftrecord import (FaultInjection, FaultPlan, ft_simulate,
                                transform_ft)
from recordkit.netlist import write_netlist
from recordkit.recordize import RecordConfig, transform
from recordkit.rng import RngSpec, derive
from recordkit.sim import Stimulus, simulate
from recordkit.trojan import leak_report

FIXTURES = {"aes-sbox": {}, "maj9": {}, "adder4": {}, "and-tree-5": {"n": 5}}
NOISE_TAG = 0x6E6F6973655F5F31  # the image demo's noise sub-stream tag

GOLDEN = {
    "transform/aes-sbox/G1":
        "68c9c61f9e16b7fa0c932c78c7a5698d29c065154630f90edca83098ee28477b",
    "transform/aes-sbox/G2":
        "da1ac18f88f498d41f804d2ae52e8e985d2578a735a927d093d50b5c1a5457d2",
    "transform/maj9/G1":
        "7b172e0feb6c966987ed801568e9f77f4067d5c9c48b90f283fd388e1957295b",
    "transform/maj9/G2":
        "d162f3ceaf4175dac322c955ac9dc63be688b2a56dcc08693870e52ce5ce3d40",
    "transform/adder4/G1":
        "ce7761bd749073ed1ab33d71979adc15f40b3eab02940265efb3a61f80ea33e1",
    "transform/adder4/G2":
        "1d9fb6abb13d54a071e26586277d7a10ea777ba20647bdc4c91ab08b5c98a7cb",
    "transform/and-tree-5/G1":
        "0a84e968137776b93ac5ddf5e169306c65e568f4a2aa1292b25920d839de5aed",
    "transform/and-tree-5/G2":
        "0d24613cc0e816ef74f7425ded8c8eb857e966e18996150f55a588e3d7a7f9b6",
    "transform_ft/maj9":
        "185888b02e6a62783b856bb7b4cc97198b824384db7f0acae7a96ebdc55b0a76",
    "transform_ft/adder4":
        "eeca52dc875f3ed51ff4d44085cfea59156fab7dac33251948faff716958ab6a",
    "transform_ft/and-tree-5":
        "eb25d378b328e468b6de81bf1ed9d53beb314f3fc43865cf096ea203eca8dc18",
    "ft_simulate/maj9":
        "4576401172a158bff4c3be715a855d9e0219af2f22b6a0156d107a48a1554b43",
    "leak_report/maj9/G2/all":
        "895bac8a36804f339486d306f216b131e8dabe43970fbdc1e67f8c2a4dfc03c3",
    "leak_report/maj9/G2/0":
        "2680f5b8a12a88abd4ef169bb019cfcef94ba2053433b84fc48d711193dfcd6d",
    "leak_report/maj9/G2/1":
        "2790bde6245fed3b25983e1d7e5967ec7e14d407c9568fae24bd11a245a8c724",
    "leak_report/maj9/G2/2":
        "e5b05ad626194f6fcff65b427fe7c60918a0711013de572685f0991981b0e965",
    "leak_report/maj9/G2/3":
        "03da62f1998824a70edabf81c4b163cd59715fe06835b4902a402ace5fe97078",
    "derive/noise":
        "17654a1757946ccbd6a6e01a2adc90d13d024fcd47a30aea0cc0c4f7556618a6",
}


def _fixture(name):
    kind = "and-tree-n" if name.startswith("and-tree") else name
    return fixture_generate(kind, **FIXTURES[name])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _artifact(key: str) -> str:
    parts = key.split("/")
    if parts[0] == "transform":
        n = _fixture(parts[1])
        groups = int(parts[2][1:])
        return write_netlist(
            transform(n, RecordConfig.checkerboard(n, groups)).netlist)
    if parts[0] == "transform_ft":
        n = _fixture(parts[1])
        return write_netlist(
            transform_ft(n, RecordConfig.checkerboard(n, 1)).design.netlist)
    if parts[0] == "ft_simulate":
        n = _fixture(parts[1])
        ft = transform_ft(n, RecordConfig.checkerboard(n, 1))
        plan = FaultPlan([FaultInjection(c, c % 3, "y", (c // 3) % 2)
                          for c in range(2, 30, 2)])
        trace = ft_simulate(ft, Stimulus.uniform(40, seed=5), RngSpec(5),
                            plan)
        return _json([asdict(s) for s in trace.steps])
    if parts[0] == "leak_report":
        n = _fixture(parts[1])
        d = transform(n, RecordConfig.checkerboard(n, int(parts[2][1:])))
        t = simulate(d, Stimulus.uniform(3000, seed=7), RngSpec(7))
        replica = None if parts[3] == "all" else int(parts[3])
        s = list(d.config.randomized_inputs)
        pairs = [(d.encode_wire(a), d.encode_wire(b))
                 for idx, a in enumerate(s) for b in s[idx + 1:]]
        if replica is not None:
            visible = set(d.replica_input_wires(replica).values())
            pairs = [(a, b) for a, b in pairs
                     if a in visible and b in visible]
        return _json(leak_report(d, t, pairs, replica=replica).to_json())
    if parts[0] == "derive":
        return _json([derive(RngSpec(s), NOISE_TAG).seed for s in range(5)])
    raise KeyError(key)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_artifact_digest(key):
    assert _digest(_artifact(key)) == GOLDEN[key]
