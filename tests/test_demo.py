import itertools
import os
import random
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from test_sim import _outcome, words

import reference_readers
from recordkit import bits, demo
from recordkit.cli import main
from recordkit.demo import (ImageDemoConfig, _design_for, demo_image,
                            edge_prediction, f1_score, geometric_edges,
                            median_filter, neighbor_differences, salt_pepper,
                            synthetic_scene, window_stimulus)
from recordkit.fixtures import make_maj9
from recordkit.netlist import Evaluator
from recordkit.pgm import read_pgm, write_pgm
from recordkit.recordize import RecordConfig, transform
from recordkit.rng import RngSpec


def test_pgm_p5_roundtrip(tmp_path):
    p = tmp_path / "img.pgm"
    pixels = list(range(0, 256, 8)) * 2
    write_pgm(p, 8, 8, pixels[:64])
    w, h, maxval, back = read_pgm(p)
    assert (w, h, maxval) == (8, 8, 255)
    assert back == bytes(pixels[:64])


def test_pgm_p2_read(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_text("P2\n# comment\n3 2\n255\n0 128 255\n10 20 30\n")
    w, h, maxval, pixels = read_pgm(p)
    assert (w, h) == (3, 2)
    assert pixels == bytes([0, 128, 255, 10, 20, 30])


def test_pgm_p5_with_header_comment(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n# made by hand\n2 2\n255\n\x00\xff\x80\x01")
    w, h, maxval, pixels = read_pgm(p)
    assert pixels == bytes([0, 255, 128, 1])


def test_pgm_malformed(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P7\n2 2\n255\nabcd")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(ValueError, match="short raster"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n70000\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(p)
    p.write_bytes(b"P5\n2")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(p)


@pytest.mark.parametrize("raster", ["0 -1 2 3", "0 1 2 16"])
def test_pgm_pixel_out_of_range(tmp_path, raster):
    p = tmp_path / "bad.pgm"
    p.write_text("P2\n2 2\n15\n%s\n" % raster)
    with pytest.raises(ValueError, match="pixel out of range"):
        read_pgm(p)


@pytest.mark.parametrize("data, message", [
    (b"P5\n2", "truncated header"),
    (b"P5\n2 2 # 255\n", "truncated header"),
    (b"P5\n2 2\n#255", "truncated header"),
    (b"P5\nx 2\n255\n\0\0\0\0", "non-numeric header"),
    (b"P9\n2 2\n2.5\n", "non-numeric header"),
    (b"P5\n0 2\n255\n\0\0", "bad dimensions or maxval"),
    (b"P5\n2 -2\n255\n\0\0", "bad dimensions or maxval"),
    (b"P5\n2 2\n0\n\0\0\0\0", "bad dimensions or maxval"),
    (b"P5\n2 2\n256\n\0\0\0\0", "bad dimensions or maxval"),
    (b"P5\n2 2\n255\n\0", "short raster"),
    (b"P5\n2 2\n255", "short raster"),
    (b"P5\n1 1\n255#c\n\x07", "no whitespace after maxval"),
    (b"P5 1 1 255#\n\0", "no whitespace after maxval"),
    (b"P2\n2 2\n255\n0 1 2 # 3\n", "short raster"),
    (b"P2\n2 2\n255\n0 1 x 3", "bad sample b'x'"),
    (b"P2\n2 2\n255\n0 1 2 3 4 0x5", "bad sample b'0x5'"),
    (b"P7\n2 2\n255\nabcd", "unknown magic b'P7'"),
    (b"P5\n2 2\n15\n\0\x10\0\0", "pixel out of range"),
    (b"P5\n1 1\n255\n\0\n", "1 bytes after the raster"),
    (b"P5 2 1 255 \0\0\0\0\0", "3 bytes after the raster"),
    (b"P5\n1 1\n15\n\x10\x10", "1 bytes after the raster"),
    (b"P2\n2 2\n15\n0 -1 2 3", "pixel out of range"),
])
def test_pgm_errors_are_pinned(tmp_path, data, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(ValueError) as e:
        read_pgm(p)
    assert str(e.value) == "malformed PGM: %s in %s" % (message, p)


def test_pgm_rejects_bytes_after_a_p5_raster(tmp_path):
    """What write_pgm and the image demo write loads back; the same file
    with one byte more does not."""
    img = tmp_path / "in.pgm"
    write_pgm(img, 16, 16, bytes(range(0, 256)))
    res = demo_image(ImageDemoConfig(out_dir=str(tmp_path / "out"),
                                     input_path=str(img), variant="record1",
                                     seed=0))
    for path in (img, res.original_path, res.enhanced_path, res.leaked_path):
        assert read_pgm(path)[:3] == (16, 16, 255)
        with open(path, "ab") as f:
            f.write(b"\n")
        with pytest.raises(ValueError) as e:
            read_pgm(path)
        assert str(e.value) == ("malformed PGM: 1 bytes after the raster in "
                                "%s" % path)


def test_pgm_accepts_what_int_accepts(tmp_path):
    """P2 samples are read by int(): a sign and digit underscores pass,
    and samples past the raster are read but not range-checked."""
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P2 2 2 15 +3 1_0 0 15 -1 99")
    assert read_pgm(p) == (2, 2, 15, bytes([3, 10, 0, 15]))


_SPACE = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c",
                          b"\r"])
_COMMENT = st.builds(lambda text, end: b"#" + text + end,
                     st.binary(max_size=6).map(
                         lambda b: b.replace(b"\n", b" ")),
                     st.sampled_from([b"\n", b"\r\n", b""]))
_GAP = st.lists(st.one_of(_SPACE, _SPACE, _COMMENT), min_size=1,
                max_size=3).map(b"".join)


@st.composite
def _pgm_files(draw):
    """Headers with whitespace and comments between (and inside) the
    tokens, then a raster that may be short, long or malformed."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2", b"P2", b"P6", b"P"]))
    width, height = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([255, 255, 15, 1, 0, 256]))
    fields = [magic] + [str(v).encode() for v in (width, height, maxval)]
    if draw(st.integers(0, 9)) == 0:
        fields[draw(st.integers(0, 3))] = draw(st.sampled_from(
            [b"x", b"+2", b"1_0", b"-1", b"\xff", b"2#3"]))
    header = draw(st.sampled_from([b"", b" ", b"#c\n"]))
    for f in fields:
        header += f + draw(_GAP)
    header = header[:len(header) - draw(st.integers(0, 3))]
    count = max(width, 0) * height + draw(st.integers(-1, 2))
    if magic == b"P2":
        sample = st.one_of(st.integers(-1, 300).map(lambda v: str(v).encode()),
                           st.sampled_from([b"+3", b"1_0", b"-1", b"junk",
                                            b"0x1", b"\xff"]))
        parts = [draw(sample) + draw(_GAP) for _ in range(max(count, 0))]
        raster = b"".join(parts)
    else:
        raster = draw(st.binary(min_size=max(count, 0),
                                max_size=max(count, 0)))
    return header + raster


_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]+)")
_HEADER_ERRORS = ("truncated header", "non-numeric header",
                  "bad dimensions or maxval")


def _matches_reference(data: bytes) -> bool:
    """read_pgm agrees with the reference reader, except for two P5 files
    that are errors: one whose valid header ends its maxval with a byte
    other than whitespace (the reference reads that byte as the delimiter),
    and one with bytes after a whole raster (the reference ignores them,
    and reads a pixel out of range only after them)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as f:
            f.write(data)
        got = _outcome(read_pgm, path)
        want = _outcome(reference_readers.read_pgm, path)
    if want[0] is not ValueError:  # the reference's raster is a list
        want = want[:3] + (bytes(want[3]),)
    tokens, i = [], 0
    for _ in range(4):  # the header tokens, as the reference walks them
        m = _TOKEN.match(data, i)
        if m is None:
            break
        tokens.append(m[1])
        i = m.end()
    header_ok = not (want[0] is ValueError
                     and any(e in want[1] for e in _HEADER_ERRORS))
    if tokens[:1] == [b"P5"] and header_ok and data[i:i + 1].strip():
        want = (ValueError, "malformed PGM: no whitespace after maxval in %s"
                % path)
    elif tokens[:1] == [b"P5"] and (
            want[0] is not ValueError
            or want[1] == "malformed PGM: pixel out of range in %s" % path):
        extra = len(data) - i - 1 - int(tokens[1]) * int(tokens[2])
        if extra > 0:
            want = (ValueError, "malformed PGM: %d bytes after the raster "
                    "in %s" % (extra, path))
    return got == want


@settings(max_examples=300, deadline=None)
@given(_pgm_files())
@example(b"P5 1 1 255 #")
@example(b"P5\n#x\n2 2\n255\n\0\0\0\0")
@example(b"P5\n1 1\n255#c\n\x07")
@example(b"P5 2 1 255 #c")
@example(b"P5 2 1 256#c\n\0\0")
@example(b"P2\n22 2\n255")
@example(b"P5 1 1 255 \0\0")
@example(b"P5 1 1 1 \x07\n")
@example(b"P2\x0b1\x0c1\r\n255\n#last")
def test_read_pgm_matches_reference_reader(data):
    assert _matches_reference(data)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"P5", b"P2", b"1", b"2", b"255", b" ",
                                 b"\n", b"\r", b"\x0b", b"#", b"x", b"\0",
                                 b"+", b"_", b"-"]),
                max_size=24).map(b"".join))
def test_read_pgm_matches_reference_on_any_bytes(data):
    assert _matches_reference(data)


def test_write_pgm_checks_size(tmp_path):
    with pytest.raises(ValueError, match="pixel count"):
        write_pgm(tmp_path / "x.pgm", 2, 2, [0, 0, 0])
    with pytest.raises(ValueError, match="pixel count"):
        write_pgm(tmp_path / "x.pgm", 2, 2, b"\0\xff\0")


def test_write_pgm_bytes_raster_matches_list(tmp_path):
    pixels = [0, 255, 255, 0, 17, 0]
    write_pgm(tmp_path / "list.pgm", 3, 2, pixels)
    write_pgm(tmp_path / "bytes.pgm", 3, 2, bytes(pixels))
    assert (tmp_path / "list.pgm").read_bytes() \
        == (tmp_path / "bytes.pgm").read_bytes()


def test_window_border_replication():
    img = [1, 0, 0, 0]  # 2x2
    assert window_bits(img, 2, 2, 0, 0) == [1, 1, 0, 1, 1, 0, 0, 0, 0]


def test_salt_pepper_rate_and_determinism():
    img = [0] * 10000
    noisy = salt_pepper(img, 0.05, RngSpec(3))
    flips = sum(noisy)
    assert 350 <= flips <= 650  # wide band around 500
    assert salt_pepper(img, 0.05, RngSpec(3)) == noisy
    assert salt_pepper(img, 0.0, RngSpec(3)) == bytes(img)


def _scalar_salt_pepper(bits, p, rng):
    """Per-word reference: four 16-bit draws per oracle word, low first."""
    cut = int(p * 65536)
    draws = ((w >> k) & 0xFFFF for w in words(rng) for k in (0, 16, 32, 48))
    return bytes(b ^ (draw < cut) for b, draw in zip(bits, draws))


# 256, 255 and 257 (/65536) are the edges of the byte-split compare: a
# low cut byte of 0, a high cut byte of 0, and both bytes set.
@pytest.mark.parametrize("size", [0, 1, 3, 5, 4097])
@pytest.mark.parametrize("p", [0, 0.015, 0.5, 65535 / 65536, 256 / 65536,
                               255 / 65536, 257 / 65536])
def test_salt_pepper_matches_per_word_reference(size, p):
    img = [(i * 7 >> 2) & 1 for i in range(size)]
    for seed in (0, 9, (1 << 64) - 1):
        assert (salt_pepper(img, p, RngSpec(seed))
                == _scalar_salt_pepper(img, p, RngSpec(seed)))


def test_salt_pepper_flips_strictly_below_the_cut():
    """A draw equal to the cut keeps its pixel; one below the cut flips it.
    Cuts at the first draws themselves pin both byte compares' edges."""
    img = [0, 1] * 8
    first = [(w >> k) & 0xFFFF for w in itertools.islice(words(RngSpec(5)), 4)
             for k in (0, 16, 32, 48)]
    for i, draw in enumerate(first):
        for cut in (draw, draw + 1):
            noisy = salt_pepper(img, cut / 65536, RngSpec(5))
            assert noisy == _scalar_salt_pepper(img, cut / 65536, RngSpec(5))
            assert noisy[i] ^ img[i] == (cut > draw)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=300), st.integers(-2, 258))
@example([127, 128, 129], 128)  # both sides of the cut
def test_binarize_matches_per_pixel_threshold(pixels, threshold):
    assert demo.binarize(pixels, threshold) == bytes(
        1 if p >= threshold else 0 for p in pixels)


def test_edge_prediction_and_f1():
    maps = [bits.pack([1, 1, 0, 0]), bits.pack([1, 0, 1, 0]),
            bits.pack([1, 0, 0, 1])]
    pred = edge_prediction(maps)  # votes: 3,1,1,1 -> only pixel 0
    assert pred == bits.pack([1, 0, 0, 0])
    assert f1_score(pred, bits.pack([1, 0, 0, 0])) == 1.0
    assert f1_score(pred, bits.pack([0, 1, 0, 0])) == 0.0
    assert f1_score(bits.pack([1, 1, 0, 0]), bits.pack([1, 0, 1, 0])) \
        == pytest.approx(0.5)


@pytest.mark.parametrize("w, h", [(64, 64), (128, 128), (58, 56), (20, 200)])
def test_synthetic_scene_matches_per_pixel_rectangles(w, h):
    """Pixels (r, c) of rows 8..27 x columns 6..29 and rows 34..55 x columns
    36..57 are 1, counted on the linear index r*w + c as the scene is."""
    ones = {r * w + c for r0, r1, c0, c1 in ((8, 28, 6, 30), (34, 56, 36, 58))
            for r in range(r0, r1) for c in range(c0, c1)}
    assert synthetic_scene(w, h) == bytes(int(i in ones)
                                          for i in range(w * h))


@pytest.mark.parametrize("w, h", [(57, 56), (58, 55), (8, 8)])
def test_synthetic_scene_rejects_a_size_that_cuts_it_off(w, h):
    with pytest.raises(ValueError, match="%dx%d is too small" % (w, h)):
        synthetic_scene(w, h)


def test_geometric_edges_rectangle():
    scene = synthetic_scene()
    edges = bits.unpack(geometric_edges(scene, 64, 64), 64 * 64)
    # interior of the first rectangle is not an edge, its border is
    assert edges[18 * 64 + 18] == 0
    assert edges[8 * 64 + 6] == 1
    assert edges[0] == 0


def test_enhanced_matches_oracle_every_variant(tmp_path):
    for variant in ("plain", "record1", "record2"):
        cfg = ImageDemoConfig(out_dir=str(tmp_path / variant),
                              variant=variant, seed=4)
        demo_image(cfg)  # raises if the decoded image deviates


def test_plain_leaked_equals_enhanced(tmp_path):
    cfg = ImageDemoConfig(out_dir=str(tmp_path), variant="plain", seed=1)
    res = demo_image(cfg)
    with open(res.enhanced_path, "rb") as f:
        enhanced = f.read()
    with open(res.leaked_path, "rb") as f:
        leaked = f.read()
    assert enhanced == leaked


def test_demo_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        demo_image(ImageDemoConfig(out_dir=str(out), variant="record2",
                                   seed=9, report_path=str(out / "r.json")))
    for name in ("original.pgm", "enhanced.pgm", "leaked.pgm", "r.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_demo_scores_and_report(tmp_path):
    cfg = ImageDemoConfig(out_dir=str(tmp_path), variant="record2", seed=0,
                          report_path=str(tmp_path / "report.json"))
    res = demo_image(cfg)
    assert 0.45 <= res.scores["cross_group_accuracy"] <= 0.55
    assert res.scores["same_group_edge_f1"] is not None
    import json
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["variant"] == "record2"
    assert doc["mi_center_vs_encoded"] < 0.01
    assert doc["pair_mi"]["same_group"] is not None
    assert doc["pair_mi"]["cross_group"] < 0.05


def test_demo_score_ordering_seed0(tmp_path):
    scores = {}
    for variant in ("plain", "record1", "record2"):
        cfg = ImageDemoConfig(out_dir=str(tmp_path / variant),
                              variant=variant, seed=0)
        scores[variant] = demo_image(cfg).scores["structural"]
    assert scores["plain"] > scores["record1"] > scores["record2"]


def test_demo_reads_user_image(tmp_path):
    img = tmp_path / "in.pgm"
    rng = random.Random(2)
    write_pgm(img, 16, 16, [rng.randint(0, 255) for _ in range(256)])
    cfg = ImageDemoConfig(out_dir=str(tmp_path / "out"),
                          input_path=str(img), variant="record1", seed=0,
                          noise=0.0)
    res = demo_image(cfg)
    w, h, _, pixels = read_pgm(res.enhanced_path)
    assert (w, h) == (16, 16)
    assert set(pixels) <= {0, 255}


@pytest.mark.parametrize("variant", demo.VARIANTS)
def test_leaked_image_is_the_vote_share_in_gray(variant):
    """One byte per pixel: 255 * (set estimates) // (estimates), or the
    enhanced image in black and white for plain."""
    w, h = 12, 9
    img = [int((r * 5 + c * 3) % 7 < 3) for r in range(h) for c in range(w)]
    run = demo._run_variant(variant, img, w, h, 4)
    leaked = demo.leaked_image(run, w, h)
    assert type(leaked) is bytes and len(leaked) == w * h
    if variant == "plain":
        assert list(leaked) == [255 * p for p in run.enhanced]
        return
    votes = len(run.estimates)
    assert list(leaked) == [255 * sum(m >> i & 1 for m in run.estimates)
                            // votes for i in range(w * h)]


def test_design_for_builds_each_variant_once():
    assert _design_for("plain")[1] is None
    for variant, groups in (("record1", 1), ("record2", 2)):
        f, design = _design_for(variant)
        again = _design_for(variant)
        assert again[0] is f and again[1] is design
        assert f == make_maj9()
        assert design == transform(make_maj9(),
                                   RecordConfig.checkerboard(f, groups))


def test_demo_raises_when_decode_disagrees_with_oracle(tmp_path, capsys,
                                                       monkeypatch):
    real = demo._run_variant

    def one_pixel_flipped(*args):
        run = real(*args)
        run.enhanced = bytes([run.enhanced[0] ^ 1]) + run.enhanced[1:]
        return run

    monkeypatch.setattr(demo, "_run_variant", one_pixel_flipped)
    with pytest.raises(RuntimeError, match="oracle"):
        demo_image(ImageDemoConfig(out_dir=str(tmp_path), seed=0))
    assert main(["demo-image", "-o", str(tmp_path / "cli")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "oracle" in err


def test_demo_config_validation():
    with pytest.raises(ValueError, match="variant"):
        ImageDemoConfig(out_dir="x", variant="record3")
    with pytest.raises(ValueError, match="threshold"):
        ImageDemoConfig(out_dir="x", threshold=300)
    with pytest.raises(ValueError, match="noise"):
        ImageDemoConfig(out_dir="x", noise=1.0)


# Row-sum oracle and bitplane layer against per-pixel references. Images
# range from 1x1 to 9x9; the explicit examples pin the 1-wide and 1-tall
# cases, where a shift's row and column masks cover the whole plane and a
# row sum or a column of row sums is all border.

# window offsets in row-major order; index 4 is the center
OFFSETS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
NEIGHBORS = [o for o in OFFSETS if o != (0, 0)]


@st.composite
def _images(draw, top=1):
    w = draw(st.integers(1, 9))
    h = draw(st.integers(1, 9))
    img = draw(st.lists(st.integers(0, top), min_size=w * h,
                        max_size=w * h))
    return img, w, h


def _pixel(img, w, h, r, c):
    return img[min(max(r, 0), h - 1) * w + min(max(c, 0), w - 1)]


def window_bits(img, w, h, r, c):
    """The brute-force oracle: 3x3 window around (r, c), border pixels
    replicated."""
    return [_pixel(img, w, h, r + dr, c + dc) for dr, dc in OFFSETS]


def _reference_differences(img, w, h):
    return [[int(img[r * w + c] != _pixel(img, w, h, r + dr, c + dc))
             for r in range(h) for c in range(w)] for dr, dc in NEIGHBORS]


def _brute_majority(img, w, h):
    return [int(sum(window_bits(img, w, h, r, c)) >= 5)
            for r in range(h) for c in range(w)]


# All ones puts every byte lane at its maximum sum of 9; the checkerboard
# and the strips put column 0 and the last column next to each other.
@settings(max_examples=200, deadline=None)
@given(_images())
@example(([1], 1, 1))
@example(([1, 1, 0, 1, 1, 0, 1], 1, 7))
@example(([1, 1, 0, 1, 1, 0, 1], 7, 1))
@example(([1] * 81, 9, 9))
@example(([1, 0, 0, 1], 2, 2))
@example(([1, 1, 0, 1, 1, 0, 1, 1, 1], 1, 9))
@example(([1, 1, 0, 1, 1, 0, 1, 1, 1], 9, 1))
def test_median_filter_matches_brute_force(case):
    img, w, h = case
    got = median_filter(img, w, h)
    assert type(got) is bytes
    assert got == bytes(_brute_majority(img, w, h))


def test_median_filter_matches_brute_force_128x128():
    rng = random.Random(24)
    img = [rng.getrandbits(1) for _ in range(128 * 128)]
    assert median_filter(img, 128, 128) \
        == bytes(_brute_majority(img, 128, 128))


def test_median_filter_shares_nothing_with_the_bitplane_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the bitplane path")

    for owner, name in ((bits, "pack"), (bits, "unpack"),
                        (bits, "transpose"), (demo, "pack"),
                        (demo, "_shift"), (Evaluator, "run")):
        monkeypatch.setattr(owner, name, refuse)
    rng = random.Random(5)
    for w, h in ((1, 1), (3, 1), (1, 4), (5, 7), (16, 16)):
        img = [rng.getrandbits(1) for _ in range(w * h)]
        assert median_filter(img, w, h) == bytes(_brute_majority(img, w, h))


def test_median_filter_rejects_a_non_bit_pixel():
    with pytest.raises(ValueError, match="pixel 2 is not 0 or 1"):
        median_filter([0, 1, 2, 1], 2, 2)


@settings(max_examples=100, deadline=None)
@given(_images(255), st.sampled_from([list, bytes]), st.integers(0, 256),
       st.sampled_from([0, 0.015, 0.5, 257 / 65536]), st.integers(0, 2 ** 16))
def test_raster_helpers_return_bytes_of_the_per_pixel_reference(
        case, kind, threshold, rate, seed):
    """read_pgm (P2 and P5), binarize, salt_pepper and median_filter return
    bytes equal to their per-pixel references, from list or bytes input."""
    img, w, h = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.pgm")
        for magic, raster in ((b"P5", bytes(img)),
                              (b"P2", " ".join(map(str, img)).encode())):
            with open(path, "wb") as f:
                f.write(b"%s %d %d 255\n%s" % (magic, w, h, raster))
            got = read_pgm(path)
            assert type(got[3]) is bytes and got == (w, h, 255, bytes(img))
    binary = demo.binarize(kind(img), threshold)
    assert type(binary) is bytes
    assert binary == bytes(1 if p >= threshold else 0 for p in img)
    flat = list(binary)
    noisy = salt_pepper(kind(flat), rate, RngSpec(seed))
    assert type(noisy) is bytes
    assert noisy == _scalar_salt_pepper(flat, rate, RngSpec(seed))
    got = median_filter(kind(flat), w, h)
    assert type(got) is bytes and got == bytes(_brute_majority(flat, w, h))


@pytest.mark.parametrize("helper", [median_filter, window_stimulus,
                                    neighbor_differences, geometric_edges])
@pytest.mark.parametrize("img, w, h, text", [
    ([1, 1, 1, 1], 3, 1, "4 pixels is not 3x1"),
    ([1, 0], 1, 1, "2 pixels is not 1x1"),
    ([], 0, 0, "0 pixels is not 0x0"),
    ([], 3, 0, "0 pixels is not 3x0"),
])
def test_image_helpers_reject_a_wrong_shape(helper, img, w, h, text):
    with pytest.raises(ValueError, match=text):
        helper(img, w, h)


@settings(max_examples=200, deadline=None)
@given(_images())
@example(([1, 0, 1, 1, 0], 1, 5))
@example(([1, 0, 1, 1, 0], 5, 1))
@example(([1], 1, 1))
def test_window_stimulus_matches_window_bits(case):
    img, w, h = case
    count, cols = window_stimulus(img, w, h).bound(9)
    assert count == w * h
    for r in range(h):
        for c in range(w):
            i = r * w + c
            assert [(col >> i) & 1 for col in cols] \
                == window_bits(img, w, h, r, c)


@settings(max_examples=200, deadline=None)
@given(_images())
@example(([0, 1, 1, 0, 1, 0], 1, 6))
@example(([0, 1, 1, 0, 1, 0], 6, 1))
def test_neighbor_differences_match_per_pixel_compare(case):
    img, w, h = case
    maps = neighbor_differences(img, w, h)
    assert all(0 <= m < 1 << (w * h) for m in maps)
    got = [list(bits.unpack(m, w * h)) for m in maps]
    assert got == _reference_differences(img, w, h)


@settings(max_examples=200, deadline=None)
@given(_images(), st.sets(st.integers(0, 7), min_size=1))
@example(([1, 0, 0, 1, 1, 0, 1], 1, 7), {0, 3, 6})
@example(([1, 0, 0, 1, 1, 0, 1], 7, 1), {1, 2, 4, 7})
def test_edge_prediction_matches_vote_counts(case, picked):
    img, w, h = case
    maps = neighbor_differences(img, w, h)
    chosen = [maps[k] for k in sorted(picked)]
    ref = _reference_differences(img, w, h)
    votes = [sum(ref[k][i] for k in picked) for i in range(w * h)]
    assert bits.unpack(edge_prediction(chosen), w * h) \
        == bytes(int(v >= 2) for v in votes)


def _f1_per_pixel(pred, truth):
    tp = sum(p and t for p, t in zip(pred, truth))
    fp = sum(p and not t for p, t in zip(pred, truth))
    fn = sum(t and not p for p, t in zip(pred, truth))
    return 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=300))
@example([(1, 0), (1, 0), (0, 0)])          # predictions where truth is empty
@example([(0, 1), (1, 1), (1, 0), (0, 0)])
def test_f1_score_matches_per_pixel_count(pairs):
    """Unmasked complements of non-negative words count what a per-pixel
    loop counts, including predicted pixels outside the truth."""
    pred, truth = [p for p, _ in pairs], [t for _, t in pairs]
    assert f1_score(bits.pack(pred), bits.pack(truth)) \
        == _f1_per_pixel(pred, truth)


@settings(max_examples=40, deadline=None)
@given(_images(), st.sampled_from(demo.VARIANTS), st.integers(0, 2 ** 16))
@example(([0, 0, 0, 0, 0, 0], 3, 2), "record2", 1)  # no true edge at all
def test_demo_scores_match_per_pixel_counts(case, variant, seed):
    """Every score of demo_image equals the same formula over 0/1 lists:
    the per-pixel edge F1s and, summed in the report's float order, the
    cross-group accuracy."""
    img, w, h = case
    n = w * h
    real, runs = demo._run_variant, []

    def capture(*args):
        runs.append(real(*args))
        return runs[-1]
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(demo, "_run_variant", capture):
        path = os.path.join(out, "in.pgm")
        write_pgm(path, w, h, [255 * p for p in img])
        scores = demo_image(ImageDemoConfig(
            out_dir=out, input_path=path, variant=variant, seed=seed,
            noise=0.0)).scores
    (run,) = runs
    est = [bits.unpack(m, n) for m in run.estimates]
    ref = _reference_differences(img, w, h)
    edges = [int(any(m[i] for m in ref)) for i in range(n)]

    def predicted(idx):
        return [int(sum(est[k][i] for k in idx) >= 2) for i in range(n)]
    assert scores["structural"] == _f1_per_pixel(predicted(range(8)), edges)
    if run.same_group:
        assert scores["same_group_edge_f1"] == \
            _f1_per_pixel(predicted(run.same_group), edges)
    if run.cross_group:
        agree = 0.0
        for k in run.cross_group:
            wrong = sum(e != r for e, r in zip(est[k], ref[k]))
            agree += (1.0 - wrong / n) * n
        assert scores["cross_group_accuracy"] == \
            agree / (n * len(run.cross_group))
