"""Reference readers for the differential properties in test_sim.py and
test_demo.py: the line-by-line stimulus reader and the byte-walking PGM
reader that ``Stimulus.from_file`` and ``pgm.read_pgm`` replaced, copied
verbatim (the stimulus classmethods as plain functions). The name does not
match ``test_*.py``, so pytest does not collect this module.
"""

from typing import Iterable, List, Sequence, Tuple

from recordkit.bits import pack
from recordkit.sim import Stimulus


def from_vectors(rows: Iterable[Sequence[int]]) -> Stimulus:
    mats = [tuple(int(b) for b in row) for row in rows]
    if not mats:
        raise ValueError("empty stimulus")
    width = len(mats[0])
    for c, row in enumerate(mats):
        if len(row) != width:
            raise ValueError("row %d has width %d, expected %d"
                             % (c, len(row), width))
        if not {0, 1}.issuperset(row):
            raise ValueError("stimulus bit must be 0 or 1")
    return Stimulus(len(mats), tuple(pack(col) for col in zip(*mats)))


def from_file(path) -> Stimulus:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if any(c not in "01" for c in line):
                raise ValueError("line %d: stimulus vectors are binary "
                                 "strings" % lineno)
            if rows and len(line) != len(rows[0]):
                raise ValueError("line %d: vector has width %d, expected "
                                 "%d" % (lineno, len(line), len(rows[0])))
            rows.append(tuple(int(c) for c in line))
    return from_vectors(rows)


def read_pgm(path) -> Tuple[int, int, int, List[int]]:
    """Return (width, height, maxval, pixels row-major)."""
    with open(path, "rb") as f:
        data = f.read()

    tokens: List[bytes] = []
    i = 0
    # header: magic, width, height, maxval, with '#' comments anywhere
    while len(tokens) < 4:
        if i >= len(data):
            raise ValueError("malformed PGM: truncated header in %s" % path)
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() \
                    and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    magic = tokens[0]
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise ValueError("malformed PGM: non-numeric header in %s" % path)
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise ValueError("malformed PGM: bad dimensions or maxval in %s"
                         % path)

    count = width * height
    if magic == b"P5":
        i += 1  # single whitespace after maxval
        raster = data[i:i + count]
        if len(raster) != count:
            raise ValueError("malformed PGM: short raster in %s" % path)
        pixels = list(raster)
    elif magic == b"P2":
        vals: List[int] = []
        for raw in data[i:].split(b"\n"):
            for tok in raw.split(b"#", 1)[0].split():
                try:
                    vals.append(int(tok))
                except ValueError:
                    raise ValueError("malformed PGM: bad sample %r in %s"
                                     % (tok, path))
        if len(vals) < count:
            raise ValueError("malformed PGM: short raster in %s" % path)
        pixels = vals[:count]
    else:
        raise ValueError("malformed PGM: unknown magic %r in %s"
                         % (magic, path))
    if min(pixels) < 0 or max(pixels) > maxval:
        raise ValueError("malformed PGM: pixel out of range in %s" % path)
    return width, height, maxval, pixels
