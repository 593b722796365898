"""Uniform quantization, zigzag ordering, and DC differential coding."""

from __future__ import annotations

import numpy as np

# Standard luminance quantization table (ISO/IEC 10918-1 Annex K.1).
DEFAULT_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)
DEFAULT_QUANT_TABLE.flags.writeable = False  # shared by every CodecConfig

BLOCK_COEFFS = 64


# (row, col) positions of the standard zigzag scan over an 8x8 grid: by
# anti-diagonal, running up-right (by column) on even ones and down-left (by
# row) on odd ones.
ZIGZAG_POSITIONS = sorted(((r, c) for r in range(8) for c in range(8)),
                          key=lambda p: (sum(p), p[0] if sum(p) % 2 else p[1]))
# Flat raster index (row * 8 + col) of each scan position.
ZIGZAG_INDEX = np.array([r * 8 + c for r, c in ZIGZAG_POSITIONS])
INVERSE_ZIGZAG_INDEX = np.argsort(ZIGZAG_INDEX)


def quantize(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Divide by the table and round half away from zero; int16 result. The
    magnitude floor(|c / q| + 0.5) is made and range-checked in place, then takes
    the sign of c / q: +0 and -0 both give level 0."""
    ratio = np.asarray(coeffs, dtype=np.float64) / q
    levels = np.abs(ratio)
    levels += 0.5
    np.floor(levels, out=levels)
    if levels.max(initial=0) > np.iinfo(np.int16).max:
        raise OverflowError("quantized level exceeds 16-bit range")
    return np.copysign(levels, ratio, out=levels).astype(np.int16)


def dequantize(levels: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Multiply levels by the table steps; float64 result, from one multiply that
    casts both operands to float64 as it goes."""
    return np.multiply(levels, q, dtype=np.float64)


def zigzag(block: np.ndarray) -> np.ndarray:
    """Flatten an 8x8 block (or stack of blocks) in zigzag scan order."""
    b = np.asarray(block)
    return b.reshape(b.shape[:-2] + (BLOCK_COEFFS,))[..., ZIGZAG_INDEX]


def inverse_zigzag(seq: np.ndarray) -> np.ndarray:
    """Rebuild 8x8 block(s) from 64-entry zigzag sequence(s)."""
    s = np.asarray(seq)
    if s.shape[-1] != BLOCK_COEFFS:
        raise ValueError(f"expected {BLOCK_COEFFS} entries, got {s.shape[-1]}")
    return s[..., INVERSE_ZIGZAG_INDEX].reshape(s.shape[:-1] + (8, 8))


def dc_differential_encode(seq: np.ndarray) -> np.ndarray:
    """Replace each block's DC (every 64th entry) with its delta from the
    previous block's DC; first block unchanged."""
    out = np.array(seq, dtype=np.int64)
    dcs = out[::BLOCK_COEFFS].copy()
    out[BLOCK_COEFFS::BLOCK_COEFFS] = dcs[1:] - dcs[:-1]
    return out


def dc_differential_decode(seq: np.ndarray) -> np.ndarray:
    """Inverse of dc_differential_encode (prefix sum over block DCs)."""
    out = np.array(seq, dtype=np.int64)
    out[::BLOCK_COEFFS] = np.cumsum(out[::BLOCK_COEFFS])
    return out
