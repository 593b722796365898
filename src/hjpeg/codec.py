"""End-to-end compressor/decompressor for the block-DCT pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import container, entropy, quantize, transform
from .container import CompressedFile
from .image import Image, pad_to_blocks


@dataclass
class CodecConfig:
    """How to code an image; scalar mode sets `group_size` to 1. Every config shares
    `quant_table`, the read-only standard table, which the container records."""

    entropy_mode: str = "reduced"  # "scalar" | "reduced"
    group_size: int = 4
    dc_diff: bool = False
    quant_table: ClassVar[np.ndarray] = quantize.DEFAULT_QUANT_TABLE

    def __post_init__(self):
        if self.entropy_mode not in ("scalar", "reduced"):
            raise ValueError(f"unknown entropy mode {self.entropy_mode!r}")
        if self.entropy_mode == "scalar":
            self.group_size = 1
        elif not 2 <= self.group_size <= 255:  # the header holds it in one byte
            raise ValueError("reduced mode needs a group size in [2, 255]")


def _to_blocks(pixels: np.ndarray) -> np.ndarray:
    """(h, w) array -> (n_blocks, 8, 8) in row-major block order."""
    h, w = pixels.shape
    return (
        pixels.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


def _from_blocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    return (
        blocks.reshape(h // 8, w // 8, 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(h, w)
    )


def image_to_symbols(img: Image, cfg: CodecConfig) -> np.ndarray:
    """Transform + quantize + zigzag every block; flat coefficient stream."""
    padded = pad_to_blocks(img)
    blocks = _to_blocks(padded.pixels)
    coeffs = transform.fdct(transform.level_shift(blocks))
    levels = quantize.quantize(coeffs, cfg.quant_table)
    seq = quantize.zigzag(levels).reshape(-1).astype(np.int64)
    if cfg.dc_diff:
        seq = quantize.dc_differential_encode(seq)
    return seq


def compress(
    img: Image, cfg: CodecConfig | None = None
) -> tuple[CompressedFile, np.ndarray]:
    """The container for `img` and how often each symbol of its sorted alphabet occurs."""
    cfg = cfg or CodecConfig()
    container.padded_size(img.width, img.height)  # refuse a too-large image up front
    rows, ids, counts, _ = entropy.group_symbols(image_to_symbols(img, cfg), cfg.group_size)
    book, rank = entropy.build_codebook(rows, counts)
    payload, bit_length = entropy.encode(rank[ids], book)
    return CompressedFile(
        dc_diff=cfg.dc_diff,
        orig_width=img.width,
        orig_height=img.height,
        quant_table=cfg.quant_table,
        codebook=book,
        payload=payload,
        payload_bit_length=bit_length,
    ), counts


def decompress(file: CompressedFile) -> Image:
    file.validate()
    ids = entropy.decode(
        file.payload, file.codebook, file.symbol_count, file.payload_bit_length
    )
    seq = file.codebook.rows[ids].reshape(-1)[: file.padded_width * file.padded_height]
    if file.dc_diff:
        seq = quantize.dc_differential_decode(seq)
    levels = quantize.inverse_zigzag(seq.reshape(-1, 64))
    coeffs = quantize.dequantize(levels, file.quant_table)
    pixels = transform.level_unshift(transform.idct(coeffs))
    full = _from_blocks(pixels, file.padded_height, file.padded_width)
    return Image(full[: file.orig_height, : file.orig_width])


def compress_bytes(img: Image, cfg: CodecConfig | None = None) -> bytes:
    return container.serialize(compress(img, cfg)[0])


def decompress_bytes(data: bytes) -> Image:
    return decompress(container.deserialize(data))
