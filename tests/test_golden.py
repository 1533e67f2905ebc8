"""Byte-identity guard: SHA-256 digests of the artifacts a refactor must
not change (transformed netlists, FT netlists and step logs, leak reports,
cost reports, derived seeds, bound stimulus columns, trace CSVs, the image
demo's PGMs and report, the files the README command tour writes). Each
digest was computed before the code that produces it was rewritten; any
drift in a reserved name, gate order, bit order or report field shows up
here as a changed digest."""

import functools
import hashlib
import json
import os
import random
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from reference_readers import from_vectors
from test_readme import run_tour

from recordkit.cost import cost_report
from recordkit.demo import (ImageDemoConfig, demo_image, salt_pepper,
                            synthetic_scene)
from recordkit.fixtures import fixture_generate
from recordkit.ftrecord import (FaultInjection, FaultPlan, ft_simulate,
                                transform_ft)
from recordkit.netlist import write_netlist
from recordkit.pgm import write_pgm
from recordkit.recordize import RecordConfig, transform
from recordkit.rng import RngSpec, derive
from recordkit.sim import Stimulus, r_columns, simulate, simulate_netlist
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
    # Re-pinned when the spare copy and its trusted input selectors gave
    # way to twin copies 2 and 3 and the __mt_ twin mux; every gate of the
    # plain transform is still there, in order (test_ftrecord checks it).
    "transform_ft/maj9":
        "fb23a353bba5944ae9e811c68e09d40840f28a56e629605df8e7f6f43e1af306",
    "transform_ft/adder4":
        "4d2aee7f14f67d843577da39fac710e26c8a38f2c7aaa78d7eeb9006a5430698",
    "transform_ft/and-tree-5":
        "f1bb8e66fbfe9a481019cb4a059fe5979ccfb46483cdd1d13cc679804559e222",
    "ft_simulate/maj9":
        "4576401172a158bff4c3be715a855d9e0219af2f22b6a0156d107a48a1554b43",
    "leak_report/maj9/G1/all":
        "040ae13f1dcd4718d1f02b3fc17d2a1575fc9536c6a3f69899e5a49b8e95c5e0",
    "leak_report/maj9/G1/0":
        "53cd40ce976706c31f7cbbcc96a78ea97a1ddc816d9829b54b2e56f1dcbf8123",
    # Views of replica k >= 1 are re-pinned: input-echo scores and all-t
    # pairs now come from replica k's own bus (they used replica 0's, which
    # such a view does not tap). Their wire MI and pick-replica entries are
    # unchanged.
    "leak_report/maj9/G1/1":
        "2d24dd5c12cdfe6d4d6104698daa10d7a6ce92a5f0e3047e4f31447a97828493",
    "leak_report/maj9/G2/all":
        "895bac8a36804f339486d306f216b131e8dabe43970fbdc1e67f8c2a4dfc03c3",
    "leak_report/maj9/G2/0":
        "2680f5b8a12a88abd4ef169bb019cfcef94ba2053433b84fc48d711193dfcd6d",
    "leak_report/maj9/G2/1":
        "fb450666c5d02adaaefdf6fab2c4396c45c2f82bf4a854e5511af4fc04d6ac66",
    "leak_report/maj9/G2/2":
        "91a68ac7c095b4331a58ea519755b0679018a90cec2f27a78df2eb9e75d9fcd0",
    "leak_report/maj9/G2/3":
        "4fb8f4e95c86b8e8a3e2fdf00c35e5009771b304c0f701eb6ab444f1dc833af1",
    "leak_report/adder4/G2/all":
        "fbf720479655398047912711b7e775515cfdb2df4a6b42bd82d0ac68fd2175f0",
    # 2^17 cycles put these on leak_report's per-input-vector counting
    # basis; pinned from the popcount-per-trace-stream code
    "leak_report/maj9/G1/all/131072":
        "250f04cd40cf948ffd5fd9052cc03047fe889cf54c55852c468c73734b1f45d0",
    "leak_report/maj9/G1/0/131072":
        "53a365b5628c07012e65eeb02a0a9325c95478b04d45d76cae8d269deb2c7330",
    "leak_report/adder4/G1/all/131072":
        "a656782a93ba5e65ab50fecac269586b8f09a57485a23a8d6d2c0632ca92484f",
    "leak_report/adder4/G2/1/131072":
        "f39798cc3e30ba00c9ee5681311fadbf1e64aec67cb8569eed159fcd5bfb6066",
    "cost_report/aes-sbox/G1":
        "b2e9dcb5c3f142c3d16f530930d301e3b9584921d7b8163780655486a8befd64",
    "cost_report/aes-sbox/G2":
        "5740aa49447493e146666131682676e480704a01c954475dfb069a7a3a5efa0c",
    "cost_report/maj9/G1":
        "edc8b8d49c48690fbfedb0fa2b6232e082944892902cc6ee3436b6d898e68738",
    "cost_report/maj9/G2":
        "4e72b906750f4cda439318a2b87b0c86ec5a89ee9eff098d61aa59eb8fc39588",
    "derive/noise":
        "17654a1757946ccbd6a6e01a2adc90d13d024fcd47a30aea0cc0c4f7556618a6",
    "demo_image/plain/original.pgm":
        "b6bf71e82dcc56edc1adb9fdd425e36345c56eeb648ca63affbdcaa732ab35b0",
    "demo_image/plain/enhanced.pgm":
        "83a5aed5f3570dc48672a0ed1bb2ed86f411eca3ac90b465e106959046f052e3",
    "demo_image/plain/leaked.pgm":
        "83a5aed5f3570dc48672a0ed1bb2ed86f411eca3ac90b465e106959046f052e3",
    "demo_image/plain/report.json":
        "e8f864d770edce72293f0705a6f552be7a4b120c0a535fa9eef1957c32f11d6b",
    "demo_image/record1/original.pgm":
        "b6bf71e82dcc56edc1adb9fdd425e36345c56eeb648ca63affbdcaa732ab35b0",
    "demo_image/record1/enhanced.pgm":
        "83a5aed5f3570dc48672a0ed1bb2ed86f411eca3ac90b465e106959046f052e3",
    "demo_image/record1/leaked.pgm":
        "8dca9e36bb3b51acbcce3de4644a942061962d7584ad47d4b3c4d1cd40f93179",
    "demo_image/record1/report.json":
        "bce6d6da5aed8830d461f548c578ab612cae6f6ccdc890ceced18d55ddc0e370",
    "demo_image/record2/original.pgm":
        "b6bf71e82dcc56edc1adb9fdd425e36345c56eeb648ca63affbdcaa732ab35b0",
    "demo_image/record2/enhanced.pgm":
        "83a5aed5f3570dc48672a0ed1bb2ed86f411eca3ac90b465e106959046f052e3",
    "demo_image/record2/leaked.pgm":
        "7176148889eb79329c66e501ee4648d099fbb7d45fdfbfd932601fdca7fd871c",
    "demo_image/record2/report.json":
        "2c7236016a39125813fea6240f52366f9e9131d2d25c8580aac933ab1c2079e7",
    "demo_input/plain/original.pgm":
        "6be8c0f01c83e8e37bfbb0a9e6234f4d808c2c8639c0e5e36317a5b77266bc88",
    "demo_input/plain/enhanced.pgm":
        "565037e5546a2a8e2dfc5a690b258037a5728ad61f86eea1ff01a0af8508f07d",
    "demo_input/plain/leaked.pgm":
        "565037e5546a2a8e2dfc5a690b258037a5728ad61f86eea1ff01a0af8508f07d",
    "demo_input/plain/report.json":
        "553f92ebe7c7e174877ec30d719b094427af8d29c62541bc4f79b4c67dfaf100",
    "demo_input/record2/original.pgm":
        "6be8c0f01c83e8e37bfbb0a9e6234f4d808c2c8639c0e5e36317a5b77266bc88",
    "demo_input/record2/enhanced.pgm":
        "565037e5546a2a8e2dfc5a690b258037a5728ad61f86eea1ff01a0af8508f07d",
    "demo_input/record2/leaked.pgm":
        "1f87d6f01526a6378e3d6bf6066bc559dc5a523152125c9ccfb9a0ed96238d9e",
    "demo_input/record2/report.json":
        "6d8a760ab8a880a3389b67cd4d736c70d586cb2e6623c3e99347f9a0f20adbc5",
    "bound/uniform":
        "f49908b6e9a26310a7f704570817bcc356c1ea0106735c97ca7f0c1f4a7a8330",
    "bound/from_vectors":
        "79e11fad60b58baafd065e5a013c361d5063a8b48808fe763f1e4a311475f125",
    "r_columns/G1G2":
        "2dcca180345eaa10d20e975afa20cc4566c487fd575b18f1534cf3ef2b801bed",
    "salt_pepper/scene":
        "1fa8edbe134d76bb39c50c8430e13a2568923a0ab8f881ed2e9e19f35dda123f",
    "to_csv/sim":
        "cc173c1d4bc31b90306c20d9251de2fa99eb0493e36b26cd7ec7527f6b67d838",
    "to_csv/ft":
        "86c6a931212eb171dec2dbbc7e834ac4db0a30fa97563c15b768ea21b30af4be",
    "cli_tour/readme":
        "8051ea18c94851319223d1ebf97530bb541840b3a571c708d1f8485d4792d07f",
}


DEMO_FILES = ("original.pgm", "enhanced.pgm", "leaked.pgm", "report.json")


def _fixture(name):
    kind = "and-tree-n" if name.startswith("and-tree") else name
    return fixture_generate(kind, **FIXTURES[name])


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@functools.lru_cache(maxsize=None)
def _demo_files(source: str, variant: str) -> dict:
    """demo_image at seed 0 on the built-in scene ("demo_image") or on a
    random 13x7 gray image with 10% noise ("demo_input"): name -> bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        extra = {}
        if source == "demo_input":
            rng = random.Random(5)
            extra = {"input_path": str(out / "in.pgm"), "noise": 0.1}
            write_pgm(extra["input_path"], 13, 7,
                      [rng.randrange(256) for _ in range(13 * 7)])
        demo_image(ImageDemoConfig(out_dir=str(out), variant=variant, seed=0,
                                   report_path=str(out / "report.json"),
                                   **extra))
        return {name: (out / name).read_bytes() for name in DEMO_FILES}


def _maj9_ft_trace():
    n = _fixture("maj9")
    ft = transform_ft(n, RecordConfig.checkerboard(n, 1))
    plan = FaultPlan([FaultInjection(c, c % 3, "y", (c // 3) % 2)
                      for c in range(2, 30, 2)])
    return ft_simulate(ft, Stimulus.uniform(40, seed=5), RngSpec(5), plan)


def _csv_bytes(trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.to_csv(path)
        return path.read_bytes()


def _tour_tree() -> bytes:
    """Run the README command tour in an empty directory; every file it
    leaves as relative path, size and bytes, in sorted path order."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run_tour()
        finally:
            os.chdir(here)
        out = b""
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            data = path.read_bytes()
            rel = path.relative_to(tmp).as_posix()
            out += b"%s\0%d\0" % (rel.encode(), len(data)) + data
        return out


def _artifact(key: str):
    parts = key.split("/")
    if parts[0] in ("demo_image", "demo_input"):
        return _demo_files(parts[0], parts[1])[parts[2]]
    if parts[0] == "bound":
        if parts[1] == "uniform":
            return _json(list(Stimulus.uniform(1000, seed=3).bound(9)[1]))
        rng = random.Random(11)
        rows = [[rng.getrandbits(1) for _ in range(7)] for _ in range(300)]
        return _json(list(from_vectors(rows).bound(7)[1]))
    if parts[0] == "r_columns":
        return _json([list(r_columns(RngSpec(4), 777, g)) for g in (1, 2)])
    if parts[0] == "salt_pepper":
        noisy = salt_pepper(synthetic_scene(), 0.05, RngSpec(3))
        return "".join(map(str, noisy))
    if parts[0] == "to_csv":
        if parts[1] == "ft":
            return _csv_bytes(_maj9_ft_trace())
        n = _fixture("maj9")
        d = transform(n, RecordConfig.checkerboard(n, 2))
        return _csv_bytes(simulate(d, Stimulus.uniform(50, seed=2),
                                   RngSpec(2)))
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
        return _json([asdict(s) for s in _maj9_ft_trace().steps])
    if parts[0] == "leak_report":
        n = _fixture(parts[1])
        d = transform(n, RecordConfig.checkerboard(n, int(parts[2][1:])))
        cycles = int(parts[4]) if len(parts) > 4 else 3000
        t = simulate(d, Stimulus.uniform(cycles, seed=7), RngSpec(7))
        replica = None if parts[3] == "all" else int(parts[3])
        s = list(d.config.randomized_inputs)
        # the pairs of `recordkit attack --pairs all-t [--isolate k]`
        bus = d.layout.buses[replica or 0]
        pairs = [(bus[a], bus[b])
                 for idx, a in enumerate(s) for b in s[idx + 1:]]
        return _json(leak_report(d, t, pairs, replica=replica).to_json())
    if parts[0] == "cost_report":
        n = _fixture(parts[1])
        d = transform(n, RecordConfig.checkerboard(n, int(parts[2][1:])))
        stim = Stimulus.uniform(3000, seed=9)
        traces = (simulate_netlist(n, stim), simulate(d, stim, RngSpec(9)))
        return _json(cost_report(n, d, traces).to_json())
    if parts[0] == "cli_tour":
        return _tour_tree()
    if parts[0] == "derive":
        return _json([derive(RngSpec(s), NOISE_TAG).seed for s in range(5)])
    raise KeyError(key)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_artifact_digest(key):
    assert _digest(_artifact(key)) == GOLDEN[key]
