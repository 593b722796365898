"""Compressed-file container: header, quantization table, codebook, payload.

The byte layout and the checks a reader must make are specified in
docs/format.md.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import entropy
from .entropy import CodeBook
from .quantize import validate_quant_table

MAGIC = b"HJPG"
VERSION = 1
FLAG_REDUCED = 0x01
FLAG_DC_DIFF = 0x02

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


@dataclass
class CompressedFile:
    group_size: int
    dc_diff: bool
    orig_width: int
    orig_height: int
    padded_width: int
    padded_height: int
    pad_count: int
    symbol_count: int
    quant_table: np.ndarray
    codebook: CodeBook
    payload: bytes
    payload_bit_length: int

    @property
    def reduced(self) -> bool:
        return self.group_size > 1

    @property
    def flags(self) -> int:
        return (FLAG_REDUCED if self.reduced else 0) | (
            FLAG_DC_DIFF if self.dc_diff else 0
        )

    def validate(self):
        if not 1 <= self.orig_width <= 0xFFFF or not 1 <= self.orig_height <= 0xFFFF:
            raise InvariantError("original dimensions out of range")
        if (self.padded_width != (self.orig_width + 7) // 8 * 8
                or self.padded_height != (self.orig_height + 7) // 8 * 8):
            raise InvariantError(
                "padded dimensions must round the original up to a multiple of 8"
            )
        if self.group_size < 1:
            raise InvariantError("group size must be >= 1")
        if not 0 <= self.pad_count < self.group_size:
            raise InvariantError("pad_count must be in [0, group_size)")
        if self.codebook.group_size != self.group_size:
            raise InvariantError("codebook group size disagrees with header")
        if len(self.payload) != (self.payload_bit_length + 7) // 8:
            raise InvariantError("payload byte length disagrees with bit length")
        if self.symbol_count > self.payload_bit_length:
            raise InvariantError("more symbols than payload bits")
        try:
            validate_quant_table(self.quant_table)
        except ValueError as exc:
            raise ContainerError(str(exc)) from None


def serialize(file: CompressedFile) -> bytes:
    file.validate()
    out = bytearray(
        _HEADER.pack(
            MAGIC,
            VERSION,
            file.flags,
            file.group_size,
            file.orig_width,
            file.orig_height,
            file.padded_width,
            file.padded_height,
            file.pad_count,
            file.symbol_count,
        )
    )
    out += np.asarray(file.quant_table, dtype=np.uint8).tobytes()
    out += entropy.serialize_codebook(file.codebook)
    out += struct.pack(">I", file.payload_bit_length)
    out += file.payload
    return bytes(out)


def deserialize(data: bytes) -> CompressedFile:
    if len(data) < 4:
        raise TruncatedFileError("file shorter than the magic number")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    if len(data) < _HEADER.size:
        raise TruncatedFileError("file shorter than the fixed header")
    (_, version, flags, group_size, orig_w, orig_h, padded_w, padded_h,
     pad_count, symbol_count) = _HEADER.unpack_from(data)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    if bool(flags & FLAG_REDUCED) != (group_size > 1):
        raise InvariantError("reduced-mode flag disagrees with group size")
    pos = _HEADER.size
    if len(data) < pos + 64:
        raise TruncatedFileError("file ends inside the quantization table")
    quant = np.frombuffer(data[pos : pos + 64], dtype=np.uint8).astype(
        np.int64
    ).reshape(8, 8)
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
    payload_bytes = (payload_bit_length + 7) // 8
    if len(data) < pos + payload_bytes:
        raise TruncatedFileError(
            f"payload declares {payload_bytes} bytes but {len(data) - pos} remain"
        )
    file = CompressedFile(
        group_size=group_size,
        dc_diff=bool(flags & FLAG_DC_DIFF),
        orig_width=orig_w,
        orig_height=orig_h,
        padded_width=padded_w,
        padded_height=padded_h,
        pad_count=pad_count,
        symbol_count=symbol_count,
        quant_table=quant,
        codebook=codebook,
        payload=data[pos : pos + payload_bytes],
        payload_bit_length=payload_bit_length,
    )
    file.validate()
    return file
