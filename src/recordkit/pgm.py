"""Minimal PGM I/O: P2 and P5 in (maxval up to 255), P5 out at maxval 255.

A raster is bytes, one byte per pixel, row-major. An untrusted file is read
in a few C-level passes: one regex for the four header tokens, with '#'
comments anywhere; for P5 one translate that deletes the in-range bytes,
no byte may follow the raster, and the raster is the slice read; for P2
one comment substitution, one map of int() (walking the samples only to
name the first one int() rejects) and one bytes() after the range check."""

from __future__ import annotations

import re
from typing import Sequence, Tuple

# a comment runs to the line end and a token to a separator, so no shorter
# match can start a token inside either
_COMMENT = re.compile(rb"#[^\n]*(?=\n|\Z)")
_HEADER = re.compile(
    (rb"(?:\s|%s)*([^\s#]+)(?![^\s#])" % _COMMENT.pattern) * 4)


def read_pgm(path) -> Tuple[int, int, int, bytes]:
    """Return (width, height, maxval, raster)."""
    with open(path, "rb") as f:
        data = f.read()

    header = _HEADER.match(data)
    if header is None:
        raise ValueError("malformed PGM: truncated header in %s" % path)
    magic = header[1]
    try:
        width, height, maxval = map(int, header.groups()[1:])
    except ValueError:
        raise ValueError("malformed PGM: non-numeric header in %s" % path)
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise ValueError("malformed PGM: bad dimensions or maxval in %s"
                         % path)

    count = width * height
    i = header.end()
    if magic == b"P5":
        if data[i:i + 1].strip():  # maxval ends at '#', not whitespace
            raise ValueError("malformed PGM: no whitespace after maxval in %s"
                             % path)
        raster = data[i + 1:i + 1 + count]  # one byte after maxval
        stray = raster.translate(None, bytes(range(maxval + 1)))
    elif magic == b"P2":
        samples = _COMMENT.sub(b"", data[i:]).split()
        try:
            raster = list(map(int, samples))[:count]
        except ValueError:
            for tok in samples:  # name the first sample int() rejects
                try:
                    int(tok)
                except ValueError:
                    raise ValueError("malformed PGM: bad sample %r in %s"
                                     % (tok, path)) from None
            raise
        stray = (min(raster, default=0) < 0
                 or max(raster, default=0) > maxval)
    else:
        raise ValueError("malformed PGM: unknown magic %r in %s"
                         % (magic, path))
    if len(raster) != count:
        raise ValueError("malformed PGM: short raster in %s" % path)
    if magic == b"P5" and len(data) > i + 1 + count:
        raise ValueError("malformed PGM: %d bytes after the raster in %s"
                         % (len(data) - i - 1 - count, path))
    if stray:
        raise ValueError("malformed PGM: pixel out of range in %s" % path)
    return width, height, maxval, bytes(raster)


def write_pgm(path, width: int, height: int, pixels: Sequence[int]) -> None:
    if len(pixels) != width * height:
        raise ValueError("pixel count %d does not match %dx%d"
                         % (len(pixels), width, height))
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (width, height))
        f.write(bytes(pixels))
