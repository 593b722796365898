"""End-to-end compressor/decompressor for the block-DCT pipeline.

Both directions split at the quantized levels. compress is image_to_levels (padding,
DCT, quantization, zigzag) then compress_levels, which codes the levels under one
config; decompress is decode_levels, its exact inverse, then levels_to_image (inverse
DCT, crop). So `hjpeg bench` runs the front end and its inverse once per image.
"""

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


def image_to_levels(img: Image) -> np.ndarray:
    """Pad, transform, quantize and zigzag every block: the flat int64 levels, 64 per
    block in row-major block order, before any DC differencing. Every config shares
    the quantization table, so one levels array serves every config of an image.
    Refuses an image too large for the container before doing any work."""
    container.padded_size(img.width, img.height)
    blocks = _to_blocks(pad_to_blocks(img).pixels)
    coeffs = transform.fdct(transform.level_shift(blocks))
    levels = quantize.quantize(coeffs, CodecConfig.quant_table)
    return quantize.zigzag(levels).reshape(-1).astype(np.int64)


def _stream(levels: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    return quantize.dc_differential_encode(levels) if cfg.dc_diff else levels


def image_to_symbols(img: Image, cfg: CodecConfig) -> np.ndarray:
    """The flat coefficient stream that `cfg` codes: the levels, DC-differenced if
    cfg.dc_diff."""
    return _stream(image_to_levels(img), cfg)


def compress_levels(
    levels: np.ndarray, width: int, height: int, cfg: CodecConfig
) -> tuple[CompressedFile, np.ndarray]:
    """The container of a `width` x `height` image whose image_to_levels are
    `levels`, coded under `cfg`, and how often each symbol of its sorted alphabet
    occurs."""
    rows, ids, counts, _ = entropy.group_symbols(_stream(levels, cfg), cfg.group_size)
    book, rank = entropy.build_codebook(rows, counts)
    payload, bit_length = entropy.encode(rank[ids], book)
    return CompressedFile(
        dc_diff=cfg.dc_diff,
        orig_width=width,
        orig_height=height,
        quant_table=cfg.quant_table,
        codebook=book,
        payload=payload,
        payload_bit_length=bit_length,
    ), counts


def compress(
    img: Image, cfg: CodecConfig | None = None
) -> tuple[CompressedFile, np.ndarray]:
    """The container for `img` and how often each symbol of its sorted alphabet occurs."""
    return compress_levels(image_to_levels(img), img.width, img.height, cfg or CodecConfig())


def decode_levels(file: CompressedFile) -> np.ndarray:
    """The levels that compress_levels coded into `file`, DC differencing undone."""
    ids = entropy.decode(
        file.payload, file.codebook, file.symbol_count, file.payload_bit_length
    )
    seq = file.codebook.rows[ids].reshape(-1)[: file.padded_width * file.padded_height]
    return quantize.dc_differential_decode(seq) if file.dc_diff else seq


def levels_to_image(levels: np.ndarray, width: int, height: int, q: np.ndarray) -> Image:
    """Rebuild a `width` x `height` image from levels laid out as image_to_levels
    makes them under table `q`: dequantize, inverse DCT, crop."""
    coeffs = quantize.dequantize(quantize.inverse_zigzag(levels.reshape(-1, 64)), q)
    pixels = transform.level_unshift(transform.idct(coeffs))
    full = _from_blocks(pixels, (height + 7) // 8 * 8, (width + 7) // 8 * 8)
    return Image(full[:height, :width])


def decompress(file: CompressedFile) -> Image:
    return levels_to_image(
        decode_levels(file), file.orig_width, file.orig_height, file.quant_table
    )


def compress_bytes(img: Image, cfg: CodecConfig | None = None) -> bytes:
    return container.serialize(compress(img, cfg)[0])


def decompress_bytes(data: bytes) -> Image:
    return decompress(container.deserialize(data))
