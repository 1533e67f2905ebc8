import itertools
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from test_sim import words

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
    assert back == pixels[:64]


def test_pgm_p2_read(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_text("P2\n# comment\n3 2\n255\n0 128 255\n10 20 30\n")
    w, h, maxval, pixels = read_pgm(p)
    assert (w, h) == (3, 2)
    assert pixels == [0, 128, 255, 10, 20, 30]


def test_pgm_p5_with_header_comment(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n# made by hand\n2 2\n255\n\x00\xff\x80\x01")
    w, h, maxval, pixels = read_pgm(p)
    assert pixels == [0, 255, 128, 1]


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
    assert salt_pepper(img, 0.0, RngSpec(3)) == img


def _scalar_salt_pepper(bits, p, rng):
    """Per-word reference: four 16-bit draws per oracle word, low first."""
    cut = int(p * 65536)
    draws = ((w >> k) & 0xFFFF for w in words(rng) for k in (0, 16, 32, 48))
    return [b ^ (draw < cut) for b, draw in zip(bits, draws)]


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
def test_binarize_matches_per_pixel_threshold(pixels, threshold):
    assert demo.binarize(pixels, threshold) == [
        1 if p >= threshold else 0 for p in pixels]


def test_edge_prediction_and_f1():
    maps = [bits.pack([1, 1, 0, 0]), bits.pack([1, 0, 1, 0]),
            bits.pack([1, 0, 0, 1])]
    pred = edge_prediction(maps)  # votes: 3,1,1,1 -> only pixel 0
    assert pred == bits.pack([1, 0, 0, 0])
    assert f1_score(pred, bits.pack([1, 0, 0, 0])) == 1.0
    assert f1_score(pred, bits.pack([0, 1, 0, 0])) == 0.0
    assert f1_score(bits.pack([1, 1, 0, 0]), bits.pack([1, 0, 1, 0])) \
        == pytest.approx(0.5)


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
        run.enhanced[0] ^= 1
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
def _images(draw):
    w = draw(st.integers(1, 9))
    h = draw(st.integers(1, 9))
    img = draw(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h))
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
    assert type(got) is list
    assert got == _brute_majority(img, w, h)


def test_median_filter_matches_brute_force_128x128():
    rng = random.Random(24)
    img = [rng.getrandbits(1) for _ in range(128 * 128)]
    assert median_filter(img, 128, 128) == _brute_majority(img, 128, 128)


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
        assert median_filter(img, w, h) == _brute_majority(img, w, h)


def test_median_filter_rejects_a_non_bit_pixel():
    with pytest.raises(ValueError, match="pixel 2 is not 0 or 1"):
        median_filter([0, 1, 2, 1], 2, 2)


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
    got = [bits.unpack(m, w * h) for m in maps]
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
        == [int(v >= 2) for v in votes]


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
