"""Frame decoding, grayscale conversion, bilinear resizing and sequence loading."""

from __future__ import annotations

import itertools
import os
import re
import stat
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import PipelineConfig, parse_wxh


class PnmError(ValueError):
    """PNM bytes that do not decode."""


@dataclass(frozen=True)
class Frame:
    """One grayscale frame. ``pixels`` is a (height, width) uint8 array."""

    width: int
    height: int
    index: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width):
            raise ValueError("pixel buffer does not match declared dimensions")


def _decimal(tok: bytes) -> int:
    """Exact value of a token of ASCII digits, leading zeros allowed. A token
    with more significant digits than ``int()`` converts (4,300 by default)
    raises PnmError."""
    try:
        return int(tok.lstrip(b"0") or b"0")
    except ValueError:
        raise PnmError(f"number of {len(tok)} digits is too long") from None


# one header field: whitespace and '#' comments, which end at a line break,
# then the field; in a bytes pattern \s is exactly the bytes isspace() accepts
_HEADER_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _tokenize_header(data: bytes, n_tokens: int) -> tuple[list[int], int]:
    """Read n_tokens whitespace-separated integers after the magic, skipping
    '#' comments. Returns the values and the offset one whitespace byte past
    the last token (start of binary payload for P5/P6)."""
    tokens: list[int] = []
    i = 2  # past the 2-byte magic
    for _ in range(n_tokens):
        m = _HEADER_FIELD.match(data, i)
        tok, i = m[1], m.end()
        if not tok:
            raise PnmError("header ended before all fields were read")
        if not tok.isdigit():
            raise PnmError(f"non-numeric header field {tok!r}")
        tokens.append(_decimal(tok))
    if i >= len(data):
        raise PnmError("no pixel data after header")
    return tokens, i + 1  # single whitespace separates header from payload


def decode_pnm(data: bytes) -> np.ndarray:
    """Decode P2/P5 (grayscale) or P3/P6 (RGB) PNM bytes, maxval <= 255, to
    (height, width) or (height, width, 3) uint8 samples rescaled to 0-255."""
    if len(data) < 2:
        raise PnmError("input too short for a PNM magic")
    magic = data[:2].decode("ascii", errors="replace")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise PnmError(f"unsupported magic {magic!r}")
    (width, height, maxval), offset = _tokenize_header(data, 3)
    if width < 1 or height < 1:
        raise PnmError("non-positive dimensions")
    if maxval > 255 or maxval < 1:
        raise PnmError(f"maxval {maxval} outside [1, 255]")

    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels

    if magic in ("P5", "P6"):
        got = len(data) - offset
        if got < count:
            raise PnmError(f"expected {count} pixel bytes, got {got}")
        # a read-only view of data; uint8 until the rescale below
        values = np.frombuffer(data, dtype=np.uint8, count=count, offset=offset)
    else:
        fields = data[offset - 1 :].split()
        if len(fields) < count:
            raise PnmError(f"expected {count} ASCII samples, got {len(fields)}")
        samples = fields[:count]
        for f in samples:
            if not f.isdigit():
                if f[:1] == b"-" and f[1:].isdigit():
                    raise PnmError(f"negative pixel sample {f!r}")
                raise PnmError(f"non-decimal pixel sample {f!r}")
        # clamped to 256 so that a sample too large for int64 fails the
        # maxval check below
        values = np.array(
            [min(_decimal(f), 256) for f in samples], dtype=np.int64
        )
    if values.max(initial=0) > maxval:
        raise PnmError("pixel sample exceeds declared maxval")
    if maxval != 255:
        # netpbm: scale to 0-255, round half up, in exact integer arithmetic
        values = (values.astype(np.int64) * 510 + maxval) // (2 * maxval)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return values.astype(np.uint8).reshape(shape)


def encode_pgm(frame: Frame) -> bytes:
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    return header + frame.pixels.tobytes()


def to_grayscale(pixels: np.ndarray) -> np.ndarray:
    """Unweighted average of the channels of (h, w, 3) samples, rounded
    half-up."""
    return np.floor(pixels.sum(axis=2, dtype=np.float64) / 3.0 + 0.5).astype(np.uint8)


def _resize_taps(n_in: int, n_out: int):
    """Pixel-centre bilinear taps along one axis: (lower index, upper index,
    weight of the lower, weight of the upper)."""
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0
    return i0, np.minimum(i0 + 1, n_in - 1), 1 - frac, frac


def resize_bilinear(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize of an (h, w) image to (out_h, out_w), with pixel-center
    alignment; intensities rounded half-up. The result owns its pixels."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    height, width = pixels.shape
    if (out_w, out_h) == (width, height):
        return pixels.copy()

    x0, x1, wx0, wx1 = _resize_taps(width, out_w)
    y0, y1, wy0, wy1 = _resize_taps(height, out_h)
    # The float64 sums are written in place into one block. Separate
    # temporaries, freed after every frame of a stream, made glibc trim the
    # heap and fault it back in: about 120 page faults per frame.
    top, bot, tmp = np.empty((3, out_h, out_w))
    # gather the needed rows first, then the columns, on the uint8 frame
    rows0 = pixels.take(y0, axis=0)
    rows1 = pixels.take(y1, axis=0)
    np.multiply(rows0.take(x0, axis=1), wx0, out=top)
    top += np.multiply(rows0.take(x1, axis=1), wx1, out=tmp)
    np.multiply(rows1.take(x0, axis=1), wx0, out=bot)
    bot += np.multiply(rows1.take(x1, axis=1), wx1, out=tmp)
    top *= wy0[:, None]
    top += np.multiply(bot, wy1[:, None], out=tmp)
    # round half up, then clip
    top += 0.5
    np.floor(top, out=top)
    np.clip(top, 0, 255, out=top)
    return top.astype(np.uint8)


def _normalize(pixels: np.ndarray, index: int, working_resolution) -> Frame:
    """The Frame of (h, w) or (h, w, 3) samples at the working resolution."""
    if pixels.ndim == 3:
        pixels = to_grayscale(pixels)
    width, height = working_resolution
    return Frame(width, height, index, resize_bilinear(pixels, width, height))


PNM_EXTENSIONS = (".pgm", ".ppm", ".pnm")


def parse_raw_geometry(raw: str) -> tuple[int, int, int]:
    """Width, height and channel count of a raw stream from its ``WxH`` or
    ``WxH:rgb`` spec, case-insensitive; each side is a positive number of
    ASCII digits."""
    rgb = raw[-4:].lower() == ":rgb"
    try:
        w, h = parse_wxh(raw[:-4] if rgb else raw)
        if w < 1 or h < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad raw geometry {raw!r}, expected WxH[:rgb]") from None
    return w, h, 3 if rgb else 1


def load_sequence(
    path_spec: str,
    working_resolution: tuple[int, int] = PipelineConfig.working_resolution,
    raw: str | None = None,
) -> Iterator[Frame]:
    """Yield grayscale frames resized to the (width, height)
    ``working_resolution``, indices 0, 1, ...; each frame owns its pixels.

    ``path_spec`` is a directory of PNM files (lexicographic order) or, with
    ``raw='WxH'`` or ``raw='WxH:rgb'``, a raw concatenated 8-bit stream.
    """
    if raw is not None:
        w, h, channels = parse_raw_geometry(raw)
        frame_bytes = w * h * channels
        shape = (h, w) if channels == 1 else (h, w, 3)
        with open(path_spec, "rb") as fh:
            st = os.fstat(fh.fileno())
            # a file shorter than one frame must not size the buffer
            if stat.S_ISREG(st.st_mode) and st.st_size < frame_bytes:
                raise ValueError(f"{path_spec} holds no complete frame")
            # one frame at a time into one reused buffer (a fresh buffer per
            # frame was measurably slower); a partial tail frame is dropped
            try:
                buf = np.empty(frame_bytes, dtype=np.uint8)
            except MemoryError:
                raise ValueError(f"no memory for a {frame_bytes}-byte frame") from None
            for i in itertools.count():
                if fh.readinto(buf) < frame_bytes:
                    if i == 0:
                        raise ValueError(f"{path_spec} holds no complete frame")
                    return
                yield _normalize(buf.reshape(shape), i, working_resolution)

    names = sorted(
        n for n in os.listdir(path_spec)
        if n.lower().endswith(PNM_EXTENSIONS)
    )
    if not names:
        raise ValueError(f"no PNM files in {path_spec}")
    for i, name in enumerate(names):
        with open(os.path.join(path_spec, name), "rb") as fh:
            data = fh.read()
        try:
            pixels = decode_pnm(data)
        except PnmError as e:
            raise PnmError(f"{name}: {e}") from None
        yield _normalize(pixels, i, working_resolution)
