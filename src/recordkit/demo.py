"""Image-enhancement demonstration: original / enhanced / leaked triple.

The enhancement function is a 3x3 binary majority (median) filter, a real
salt-and-pepper denoiser small enough (9 inputs) for exhaustive checking.
The pipeline binarizes the input image, optionally salts it with noise to
form the "original", then filters every 3x3 window (border replicated)
through the chosen variant:

  plain     the bare filter; an implant sees everything, so the leaked
            image is the enhanced image itself.
  record1   one random bit over all 9 window inputs.
  record2   two random bits, checkerboard grouping, so a window's center
            and its four edge-adjacent neighbors sit in opposite groups.

Windows are processed in raster order with fresh random bits per window.
Every raster is bytes, one byte per pixel, from PGM read to PGM write; the
filter works on a packed bitplane, a plain int with pixel r*width+c at bit
r*width+c whose length width*height the caller carries, so the nine window
inputs are nine shifted copies of that plane and each neighbor-difference
map is the plane xored with one shifted copy, and a shift replicates the
border with row and column masks. The independent oracle, median_filter,
a 3x3 majority by row sums in the raster's byte lanes, shares nothing with
the bitplane path: every call cross-checks the enhanced image against it.

The implant runs the gradient strategy: per window it xors the visible
encoded center against each visible encoded neighbor, an estimate of the
true pixel difference. Same-group estimates are exact (the shared random
bit cancels); cross-group estimates are masked to coin flips. The leaked
image renders the per-pixel mean of those difference estimates (growing
white with estimated edge strength, mid-gray where no estimate exists).

Scoring, defined here and used by the acceptance checks:

  structural score   F1 of the predicted edge set {pixels with >= 2 of the
                     8 difference estimates set} against the geometric edge
                     set of the clean scene (pixels differing from an
                     8-neighbor). For the plain variant the differences are
                     read off the leaked (= enhanced) image.
  same-group F1      the same predictor restricted to same-group estimates.
  cross accuracy     per-bit accuracy of cross-group estimates against the
                     true differences of the (noisy) filter input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .bits import pack, unpack
from .fixtures import make_maj9
from .jsontext import dumps
from .netlist import Netlist
from .pgm import read_pgm, write_pgm
from .recordize import PartitionedDesign, RecordConfig, transform
from .rng import RngSpec, derive, packed_bits
from .sim import SimTrace, Stimulus, simulate, simulate_netlist
from .trojan import mutual_information

VARIANTS = ("plain", "record1", "record2")

_NOISE_TAG = 0x6E6F6973655F5F31  # distinct sub-stream for pixel noise

# window offsets in row-major order; index 4 is the center
_OFFSETS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
_NEIGHBOR_IDX = [0, 1, 2, 3, 5, 6, 7, 8]

_WHITE = bytes.maketrans(b"\0\1", b"\0\xff")  # 0/1 pixels to 0/255 bytes
_MAJORITY = bytes(5) + b"\1" * 5 + bytes(246)  # window sums 5..9 to 1


@dataclass
class ImageDemoConfig:
    """Settings of one image-demo run, checked when constructed."""

    out_dir: str
    input_path: Optional[str] = None
    variant: str = "record1"
    threshold: int = 128
    noise: float = 0.015
    seed: int = 0
    report_path: Optional[str] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError("variant must be one of %s" % (VARIANTS,))
        if not 0 <= self.threshold <= 255:
            raise ValueError("threshold must be in 0..255")
        if not 0 <= self.noise < 1:
            raise ValueError("noise probability must be in [0, 1)")


@dataclass
class DemoResult:
    """Paths of the written images, the leak scores and the report."""

    original_path: str
    enhanced_path: str
    leaked_path: str
    scores: Dict[str, Optional[float]]
    report: dict


def synthetic_scene(width: int = 64, height: int = 64) -> bytes:
    """Two filled rectangles on empty background, as 0/1 pixels."""
    img = bytearray(width * height)
    for r0, r1, c0, c1 in ((8, 28, 6, 30), (34, 56, 36, 58)):
        for r in range(r0, r1):
            img[r * width + c0:r * width + c1] = b"\1" * (c1 - c0)
    if len(img) != width * height:  # a row slice past the end grows img
        raise ValueError("%dx%d is too small for the scene" % (width, height))
    return bytes(img)


def binarize(pixels: Sequence[int], threshold: int) -> bytes:
    """0/1 pixel p >= threshold for 8-bit pixels, by one table pass."""
    table = (bytes(max(threshold, 0)) + b"\1" * 256)[:256]
    return bytes(pixels).translate(table)


def salt_pepper(bits: Sequence[int], p: float, rng: RngSpec) -> bytes:
    """Flip each pixel independently with probability p (quantized 1/2^16).

    Pixel i draws stream bits 16i..16i+15, so each 64-bit word serves four
    pixels, low half-word first. draw < cut is compared a byte at a time,
    each byte test a table that maps every draw to a 0/1 byte lane."""
    n = len(bits)
    cut_hi, cut_lo = divmod(int(p * 65536), 256)
    draws = packed_bits(rng, 16 * n).to_bytes(2 * n, "little")

    def below(lanes: bytes, t: int) -> int:
        table = (b"\1" * t + bytes(256))[:256]
        return int.from_bytes(lanes.translate(table), "little")
    hi, lo = draws[1::2], draws[0::2]
    noise = below(hi, cut_hi) | (below(hi, cut_hi + 1) & below(lo, cut_lo))
    flipped = noise ^ int.from_bytes(bytes(bits), "little")
    return flipped.to_bytes(n, "little")


def _check_shape(img: Sequence[int], width: int, height: int) -> None:
    if width < 1 or height < 1 or len(img) != width * height:
        raise ValueError("image of %d pixels is not %dx%d"
                         % (len(img), width, height))


def median_filter(img: Sequence[int], width: int, height: int) -> bytes:
    """3x3 majority oracle, the reference for every variant: 3-wide sums of
    each border-replicated row, added over the clamped rows above and below.
    Pixel i is byte lane i of an integer, so each sum is one integer add of
    shifted copies; a lane holds at most 9, so no lane carries."""
    _check_shape(img, width, height)
    row = bytes(img)
    stray = row.translate(None, b"\0\1")
    if stray:
        raise ValueError("pixel %d is not 0 or 1" % stray[0])
    left = bytearray(row[:1] + row[:-1])  # pixel c-1; column 0 kept
    left[::width] = row[::width]
    right = bytearray(row[1:] + row[-1:])  # pixel c+1; last column kept
    right[width - 1::width] = row[width - 1::width]

    def lanes(*parts: bytes) -> int:
        return sum(int.from_bytes(part, "little") for part in parts)
    h = lanes(left, row, right).to_bytes(len(row), "little")
    v = lanes(h[:width] + h[:-width], h, h[width:] + h[-width:])
    return v.to_bytes(len(row), "little").translate(_MAJORITY)


def _shift(plane: int, dr: int, dc: int, width: int, height: int) -> int:
    """Bitplane whose pixel (r, c) is the plane's pixel (r+dr, c+dc), with
    dr, dc in {-1, 0, 1} and the border replicated."""
    full = (1 << (width * height)) - 1
    first_row = (1 << width) - 1
    first_col = full // first_row
    if dc == 1:
        last_col = first_col << (width - 1)
        plane = ((plane >> 1) & ~last_col) | (plane & last_col)
    elif dc == -1:
        plane = ((plane << 1) & (full ^ first_col)) | (plane & first_col)
    if dr == 1:
        last_row = first_row << (width * (height - 1))
        plane = (plane >> width) | (plane & last_row)
    elif dr == -1:
        plane = ((plane << width) & full) | (plane & first_row)
    return plane


def window_stimulus(img: Sequence[int], width: int, height: int) -> Stimulus:
    """One cycle per pixel in raster order; input x(k+1) is the k-th
    window offset's shifted plane."""
    _check_shape(img, width, height)
    plane = pack(img)
    cols = tuple(_shift(plane, dr, dc, width, height) for dr, dc in _OFFSETS)
    return Stimulus(width * height, cols)


def neighbor_differences(img: Sequence[int], width: int,
                         height: int) -> List[int]:
    """The per-pixel difference bitplane of each neighbor direction."""
    _check_shape(img, width, height)
    plane = pack(img)
    return [plane ^ _shift(plane, *_OFFSETS[k], width, height)
            for k in _NEIGHBOR_IDX]


def geometric_edges(img: Sequence[int], width: int, height: int) -> int:
    """Bitplane of the pixels that differ from at least one 8-neighbor."""
    acc = 0
    for m in neighbor_differences(img, width, height):
        acc |= m
    return acc


def edge_prediction(diff_maps: Sequence[int]) -> int:
    """Bitplane of pixels where at least two difference estimates are set."""
    if not diff_maps:
        raise ValueError("no difference estimates")
    ones = twos = 0
    for m in diff_maps:
        twos |= ones & m
        ones |= m
    return twos


def f1_score(pred: int, truth: int) -> float:
    """F1 of two bitplanes; an & with a non-negative int needs no mask."""
    tp = (pred & truth).bit_count()
    fp = (pred & ~truth).bit_count()
    fn = (~pred & truth).bit_count()
    if 2 * tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


@lru_cache(maxsize=None)
def _design_for(variant: str) -> Tuple[Netlist, Optional[PartitionedDesign]]:
    f = make_maj9()
    if variant == "plain":
        return f, None
    groups = 1 if variant == "record1" else 2
    return f, transform(f, RecordConfig.checkerboard(f, groups))


@dataclass
class _VariantRun:
    """One variant's filtered image, its leak estimates and its run."""

    enhanced: bytes
    estimates: List[int]             # 8 neighbor-difference bitplanes
    same_group: List[int]            # indices into estimates
    cross_group: List[int]
    trace: Optional[SimTrace]
    design: Optional[PartitionedDesign]


def _run_variant(variant: str, noisy: Sequence[int], width: int, height: int,
                 seed: int) -> _VariantRun:
    f, design = _design_for(variant)
    stim = window_stimulus(noisy, width, height)
    if design is None:
        trace = simulate_netlist(f, stim)
        enhanced = unpack(trace.wires["y"], trace.cycles)
        est = neighbor_differences(enhanced, width, height)
        return _VariantRun(enhanced, est, list(range(8)), [], None, None)

    trace = simulate(design, stim, RngSpec(seed))
    enhanced = unpack(trace.wires[design.decoded_outputs[0]], trace.cycles)
    center = trace.wires[design.encode_wire("x5")]
    estimates = []
    same, cross = [], []
    g_of = design.config.group_assignment
    for pos, k in enumerate(_NEIGHBOR_IDX):
        neighbor = trace.wires[design.encode_wire("x%d" % (k + 1))]
        estimates.append(center ^ neighbor)
        if g_of["x%d" % (k + 1)] == g_of["x5"]:
            same.append(pos)
        else:
            cross.append(pos)
    return _VariantRun(enhanced, estimates, same, cross, trace, design)


def leaked_image(run: _VariantRun, width: int, height: int) -> bytes:
    """Gray levels 0..255, one byte per pixel; the enhanced image for plain.
    Planes read as hex add one pixel per nibble (8 planes, so no carry)."""
    if run.design is None:
        return run.enhanced.translate(_WHITE)
    votes = len(run.estimates)
    level = bytes.maketrans(b"0123456789abcdef"[:votes + 1],
                            bytes(255 * c // votes for c in range(votes + 1)))
    total = sum(int(format(m, "b"), 16) for m in run.estimates)
    text = format(total, "0%dx" % (width * height))[::-1]
    return text.encode().translate(level)


def demo_image(cfg: ImageDemoConfig) -> DemoResult:
    """Produce the original/enhanced/leaked triple plus a leakage report."""
    if cfg.input_path is None:
        width = height = 64
        clean = synthetic_scene(width, height)
    else:
        width, height, _maxval, pixels = read_pgm(cfg.input_path)
        clean = binarize(pixels, cfg.threshold)

    noisy = salt_pepper(clean, cfg.noise,
                        derive(RngSpec(cfg.seed), _NOISE_TAG))
    run = _run_variant(cfg.variant, noisy, width, height, cfg.seed)

    oracle = median_filter(noisy, width, height)
    if run.enhanced != oracle:
        raise RuntimeError("enhanced image disagrees with the median-filter "
                           "oracle; decode path is broken")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: str(out_dir / ("%s.pgm" % name))
             for name in ("original", "enhanced", "leaked")}
    write_pgm(paths["original"], width, height, noisy.translate(_WHITE))
    write_pgm(paths["enhanced"], width, height, oracle.translate(_WHITE))
    leaked = leaked_image(run, width, height)
    write_pgm(paths["leaked"], width, height, leaked)

    n = width * height  # bits of every bitplane and trace word
    true_diffs = []  # of the noisy input, x5 ^ x<k+1>, off a design's trace
    if run.trace is not None:
        x5 = run.trace.wires["x5"]
        true_diffs = [x5 ^ run.trace.wires["x%d" % (k + 1)]
                      for k in _NEIGHBOR_IDX]
    truth_edges = geometric_edges(clean, width, height)
    scores: Dict[str, Optional[float]] = {
        "structural": f1_score(edge_prediction(run.estimates), truth_edges),
        "same_group_edge_f1": None,
        "cross_group_accuracy": None,
    }
    if run.same_group:
        scores["same_group_edge_f1"] = f1_score(
            edge_prediction([run.estimates[i] for i in run.same_group]),
            truth_edges)
    if run.cross_group:
        agree = 0.0
        for i in run.cross_group:
            wrong = (run.estimates[i] ^ true_diffs[i]).bit_count()
            agree += (1.0 - wrong / n) * n
        scores["cross_group_accuracy"] = agree / (n * len(run.cross_group))

    report = {"variant": cfg.variant, "seed": cfg.seed, "noise": cfg.noise,
              "scores": scores}
    if run.design is not None and run.trace is not None:
        t5 = run.trace.wires[run.design.encode_wire("x5")]
        report["mi_center_vs_encoded"] = mutual_information(t5, x5, n)
        pair_mi = {}
        for label, idx_list in (("same_group", run.same_group),
                                ("cross_group", run.cross_group)):
            # left to right: sum() of floats is compensated from 3.12 on
            total = 0.0
            for pos in idx_list:
                total += mutual_information(run.estimates[pos],
                                            true_diffs[pos], n)
            pair_mi[label] = total / len(idx_list) if idx_list else None
        report["pair_mi"] = pair_mi

    if cfg.report_path:
        Path(cfg.report_path).write_text(dumps(report), encoding="utf-8")

    return DemoResult(paths["original"], paths["enhanced"], paths["leaked"],
                      scores, report)
