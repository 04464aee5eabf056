"""Grayscale PGM images (P2 ASCII and P5 binary) as unit-interval rasters."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .model import _check_count

MAXVALS = range(1, 65536)  # the maxval a PGM header may give


@dataclass(eq=False)
class GrayImage:
    pixels: np.ndarray  # (height, width) floats in [0, 1]
    maxval: int = 255

    def __post_init__(self):
        # the range read_pgm accepts, so every image writes a readable file
        self.maxval = _check_count(maxval=self.maxval)
        if self.maxval not in MAXVALS:
            raise ValueError(
                f"maxval must be an integer in {MAXVALS[0]}..{MAXVALS[-1]}")
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a nonempty (height, width) array")
        if not np.all(np.isfinite(px)):  # the clip keeps NaN, which no byte encodes
            raise ValueError("pixels contain non-finite entries")
        self.pixels = np.clip(px, 0.0, 1.0)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _tokens(data: bytes):
    """Yield (offset, token) for each whitespace-separated header token,
    skipping '#' comments.  Whitespace is the bytes-mode ``\\s``: the six
    ASCII bytes that ``bytes.isspace`` accepts."""
    for match in re.finditer(rb"#[^\n]*|\S+", data):
        if not match[0].startswith(b"#"):
            yield match.start(), match[0]


def read_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    try:
        _, magic = next(toks)
    except StopIteration:
        raise ParseError("empty file; not a PGM image") from None
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"not a PGM image (magic {magic!r}, want P2 or P5)")
    try:
        _, w = next(toks)
        _, h = next(toks)
        pos, mv = next(toks)
    except StopIteration:
        raise ParseError("truncated PGM header") from None
    if not (w.isdigit() and h.isdigit() and mv.isdigit()):  # decimal ASCII only
        raise ParseError("malformed PGM header")
    width, height, maxval = int(w), int(h), int(mv)
    if width < 1 or height < 1 or maxval not in MAXVALS:
        raise ParseError("PGM header out of range")
    count = width * height
    if magic == b"P2":
        values = [tok for _, tok in toks]
        if not all(map(bytes.isdigit, values)):
            raise ParseError("malformed P2 raster value")
        if len(values) != count:
            raise ParseError(f"expected {count} pixels, found {len(values)}")
        pixels = list(map(int, values))
        if max(pixels) > maxval:  # before int64, which a long token overflows
            raise ParseError("pixel value outside [0, maxval]")
        raster = np.array(pixels, dtype=np.int64)
    else:
        offset = pos + len(mv) + 1  # single whitespace byte after maxval
        dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
        try:
            raster = np.frombuffer(data, dtype=dtype, count=count,
                                   offset=offset).astype(np.int64)
        except ValueError:
            raise ParseError("truncated PGM raster") from None
    if np.any(raster < 0) or np.any(raster > maxval):
        raise ParseError("pixel value outside [0, maxval]")
    return GrayImage(raster.reshape(height, width) / maxval, maxval)


def write_pgm(path, img: GrayImage) -> None:
    """Write as binary P5 with the image's maxval."""
    raster = np.rint(np.clip(img.pixels, 0.0, 1.0) * img.maxval).astype(np.int64)
    header = f"P5\n{img.width} {img.height}\n{img.maxval}\n".encode("ascii")
    if img.maxval < 256:
        payload = raster.astype(np.uint8).tobytes()
    else:
        payload = raster.astype(">u2").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)
