"""8-bit grayscale images: PGM I/O, synthetic generators, block padding."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 8
_HEADER_ITEM = re.compile(rb"#[^\r\n]*|(\S+)")  # a comment to its line end, or a field


class PgmError(ValueError):
    """Base class for malformed PGM input."""


class PgmMagicError(PgmError):
    """Magic number is neither P2 nor P5."""


class PgmMaxvalError(PgmError):
    """Declared maxval is outside [1, 255]."""


class PgmTruncatedError(PgmError):
    """Sample data ends before width*height samples."""


@dataclass(frozen=True, eq=False)
class Image:
    """Grayscale image; pixels is a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:  # refuse what a uint8 cast would change
            if not np.all((px >= 0) & (px <= 255) & (px % 1 == 0)):
                raise ValueError("pixels must be integers in 0..255")
            px = px.astype(np.uint8)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


def _decimal(token: bytes, what: str) -> int:
    """A header field or P2 sample as an int: ASCII decimal digits only, at most 18
    past leading zeros so that int64 holds it. int() alone would also take a sign,
    underscores and non-ASCII digits, and raises a bare ValueError past 4300 digits."""
    digits = token.lstrip(b"0") or b"0"
    if not token.isdigit() or len(digits) > 18:
        raise PgmError(f"{what} {token[:24]!r} is not a decimal number below 10**18")
    return int(digits)


def read_pgm(data: bytes) -> Image:
    """Parse a binary (P5) or ASCII (P2) PGM with maxval <= 255.

    After the magic come width, height and maxval: runs of non-whitespace bytes
    between whitespace and comments. A comment runs from "#" to the end of its line
    and starts only where a field could start; a "#" inside a field is part of it,
    so the digit check refuses it. Exactly one whitespace byte follows maxval.
    Each sample s is scaled to 0..255 as (s * 255 + maxval // 2) // maxval,
    rounded to nearest, through one table of maxval + 1 levels (for P5, applied
    by bytes.translate before the array is made), after the check that no sample
    exceeds maxval; a maxval-255 file's samples stay as they are.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmMagicError(f"bad PGM magic {magic!r}")
    fields = []
    for match in _HEADER_ITEM.finditer(data, 2):
        if match[1]:  # a field; a comment is skipped without being copied
            fields.append(_decimal(match[1], "header field"))
            if len(fields) == 3:
                break
    else:
        raise PgmTruncatedError("header ended before all fields were read")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise PgmMaxvalError(f"maxval {maxval} not in [1, 255]")
    count = width * height
    body = data[match.end() + 1 :]
    # sample s becomes levels[s], which leaves every sample as it is at maxval 255
    levels = ((np.arange(maxval + 1) * 255 + maxval // 2) // maxval).astype(np.uint8)
    if magic == b"P5":
        if len(body) < count:
            raise PgmTruncatedError(
                f"expected {count} samples, found {len(body)}"
            )
        body = body[:count]
        if np.frombuffer(body, dtype=np.uint8).max() > maxval:
            raise PgmError(f"sample value above maxval {maxval}")
        samples = np.frombuffer(body.translate(levels.tobytes().ljust(256, b"\0")), np.uint8)
    else:
        values = body.split()
        if len(values) < count:
            raise PgmTruncatedError(
                f"expected {count} samples, found {len(values)}"
            )
        samples = np.array([_decimal(v, "sample") for v in values[:count]], np.int64)
        if samples.max() > maxval:
            raise PgmError(f"sample value above maxval {maxval}")
        samples = levels[samples]
    return Image(samples.reshape(height, width))


def write_pgm(img: Image) -> bytes:
    """Serialize as binary P5; read_pgm(write_pgm(img)) == img."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def generate_test_image(kind: str, width: int, height: int, seed: int = 0) -> Image:
    """Deterministic synthetic image: gradient, checker, or noise."""
    if width < 1 or height < 1:
        raise ValueError("dimensions must be >= 1")
    if kind == "gradient":
        if width == 1:
            row = np.zeros(1, dtype=np.uint8)
        else:
            row = (255 * np.arange(width) // (width - 1)).astype(np.uint8)
        pixels = np.tile(row, (height, 1))
    elif kind == "checker":
        x = np.arange(width)
        y = np.arange(height)[:, None]
        pixels = (((x + y) % 2) * 255).astype(np.uint8)
    elif kind == "noise":
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    else:
        raise ValueError(f"unknown image kind {kind!r}")
    return Image(pixels)


def pad_to_blocks(img: Image) -> Image:
    """Pad width and height up to multiples of 8 by replicating edge samples: the
    image, then copies of its last row below it, then copies of the last column
    of that to the right, written into one new array."""
    h, w = img.pixels.shape
    size = -(-h // BLOCK_SIZE) * BLOCK_SIZE, -(-w // BLOCK_SIZE) * BLOCK_SIZE
    padded = np.empty(size, np.uint8)
    padded[:h, :w] = img.pixels
    padded[h:, :w] = img.pixels[-1]
    padded[:, w:] = padded[:, w - 1 : w]
    return Image(padded)
