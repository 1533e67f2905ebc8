"""Minimal PGM I/O: P2 and P5 in (maxval up to 255), P5 out at maxval 255."""

from __future__ import annotations

from typing import List, Sequence, Tuple


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


def write_pgm(path, width: int, height: int, pixels: Sequence[int]) -> None:
    if len(pixels) != width * height:
        raise ValueError("pixel count %d does not match %dx%d"
                         % (len(pixels), width, height))
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (width, height))
        f.write(bytes(pixels))
