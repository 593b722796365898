"""Compressed-file container: header, quantization table, codebook, payload.

The byte layout and the checks a reader must make are specified in
docs/format.md. The reader requires the data to begin with the fixed `header`
that the writer makes of the file it reads, so the writer alone decides it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import entropy
from .entropy import CodeBook

MAGIC = b"HJPG"
VERSION = 1
FLAG_REDUCED = 0x01
FLAG_DC_DIFF = 0x02
MAX_DIMENSION = 0xFFF8  # the largest side whose padded size fits a u16 field

_HEADER = struct.Struct(">4sBBBHHHHBI")


class ContainerError(ValueError):
    pass


class BadMagicError(ContainerError):
    pass


class UnsupportedVersionError(ContainerError):
    pass


class TruncatedFileError(ContainerError):
    pass


class InvariantError(ContainerError):
    pass


class ImageTooLargeError(ContainerError):
    """Image side whose padded size does not fit the header's u16 field."""


class TrailingDataError(ContainerError):
    """Bytes follow the payload."""


class PayloadTooLargeError(ContainerError):
    """Payload bit length that does not fit the u32 field."""


class GroupSizeTooLargeError(ContainerError):
    """Group size that does not fit the header's u8 field."""


def padded_size(width: int, height: int) -> tuple[int, int]:
    """Both sides rounded up to a multiple of 8, as the header stores them."""
    if width > MAX_DIMENSION or height > MAX_DIMENSION:
        raise ImageTooLargeError(
            f"{width}x{height} image: sides are limited to {MAX_DIMENSION} pixels"
        )
    return (width + 7) // 8 * 8, (height + 7) // 8 * 8


@dataclass(frozen=True, eq=False)
class CompressedFile:
    """What a container holds that nothing else decides. The header's padded sides,
    pad count and symbol count follow from the original size and the codebook's g.
    The constructor makes the "Reader checks" of docs/format.md that these fields
    decide, and the file is frozen, so they hold for its life. Only fields that
    contradict each other raise InvariantError."""

    dc_diff: bool
    orig_width: int
    orig_height: int
    quant_table: np.ndarray
    codebook: CodeBook
    payload: bytes
    payload_bit_length: int

    def __post_init__(self):
        if self.orig_width < 1 or self.orig_height < 1:
            raise ContainerError("original dimensions must be at least 1")
        if self.group_size < 1:
            raise InvariantError("group size must be >= 1")
        if self.group_size > 0xFF:
            raise GroupSizeTooLargeError("group size does not fit a u8 field")
        symbol_count = self.symbol_count  # refuses a side above MAX_DIMENSION
        if self.payload_bit_length >= 1 << 32:
            raise PayloadTooLargeError("payload bit length does not fit a u32 field")
        if len(self.payload) != (self.payload_bit_length + 7) // 8:
            raise InvariantError("payload byte length disagrees with bit length")
        if symbol_count > self.payload_bit_length:
            raise InvariantError("more symbols than payload bits")
        longest = int(self.codebook.code_lengths[-1])  # as the lengths are canonical
        if self.payload_bit_length > symbol_count * longest:
            raise InvariantError("more payload bits than the symbols' longest codes fill")
        if np.shape(self.quant_table) != (8, 8):
            raise ContainerError("quantization table must be 8x8")
        if np.min(self.quant_table) < 1 or np.max(self.quant_table) > 255:
            raise ContainerError("quantization steps must be in [1, 255]")

    @property
    def group_size(self) -> int:
        return self.codebook.group_size

    @cached_property
    def padded_width(self) -> int:
        return padded_size(self.orig_width, self.orig_height)[0]

    @cached_property
    def padded_height(self) -> int:
        return padded_size(self.orig_width, self.orig_height)[1]

    @cached_property
    def symbol_count(self) -> int:
        return -(-self.padded_width * self.padded_height // self.group_size)

    @cached_property
    def pad_count(self) -> int:
        return self.symbol_count * self.group_size - self.padded_width * self.padded_height


def header(file: CompressedFile) -> bytes:
    """The fixed header of `file`: what the writer stores and the reader requires."""
    flags = FLAG_REDUCED * (file.group_size > 1) | FLAG_DC_DIFF * file.dc_diff
    return _HEADER.pack(MAGIC, VERSION, flags, file.group_size, file.orig_width,
                        file.orig_height, file.padded_width, file.padded_height,
                        file.pad_count, file.symbol_count)


def serialize(file: CompressedFile) -> bytes:
    return b"".join((
        header(file),
        np.asarray(file.quant_table, dtype=np.uint8).tobytes(),
        entropy.serialize_codebook(file.codebook),
        struct.pack(">I", file.payload_bit_length),
        file.payload,
    ))


def deserialize(data: bytes) -> CompressedFile:
    if len(data) < 4:
        raise TruncatedFileError("file shorter than the magic number")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    if len(data) < _HEADER.size:
        raise TruncatedFileError("file shorter than the fixed header")
    _, version, flags, group_size, orig_w, orig_h = _HEADER.unpack_from(data)[:6]
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    if flags & ~(FLAG_REDUCED | FLAG_DC_DIFF):
        raise ContainerError(f"reserved flag bits set in {flags:#04x}")
    pos = _HEADER.size
    if len(data) < pos + 64:
        raise TruncatedFileError("file ends inside the quantization table")
    quant = np.frombuffer(data[pos : pos + 64], dtype=np.uint8).astype(
        np.int64
    ).reshape(8, 8)
    quant.flags.writeable = False  # the file's checks must hold for its life
    pos += 64
    try:
        codebook, consumed = entropy.deserialize_codebook(data[pos:], group_size)
    except entropy.TruncatedCodebookError as exc:
        raise TruncatedFileError(str(exc)) from exc
    pos += consumed
    if len(data) < pos + 4:
        raise TruncatedFileError("file ends before the payload bit length")
    (payload_bit_length,) = struct.unpack_from(">I", data, pos)
    pos += 4
    end = pos + (payload_bit_length + 7) // 8
    if len(data) < end:
        raise TruncatedFileError(
            f"payload declares {end - pos} bytes but {len(data) - pos} remain"
        )
    if len(data) > end:
        raise TrailingDataError(f"{len(data) - end} bytes follow the payload")
    file = CompressedFile(
        dc_diff=bool(flags & FLAG_DC_DIFF),
        orig_width=orig_w,
        orig_height=orig_h,
        quant_table=quant,
        codebook=codebook,
        payload=data[pos:end],
        payload_bit_length=payload_bit_length,
    )
    expected = header(file)
    if data[: _HEADER.size] != expected:
        _, _, flags, _, _, _, *derived = _HEADER.unpack(expected)
        raise InvariantError(
            f"flags, padded size, pad count and symbol count must be {flags:#04x} and "
            f"{tuple(derived)}, as the original size, g and DC flag decide them")
    return file
