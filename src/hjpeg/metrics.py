"""Entropy, compression ratio, PSNR, and the report row."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import Image


def entropy_mode(group_size: int) -> str:
    """The mode that group size g codes in: scalar for g = 1, else reduced."""
    return "reduced" if group_size > 1 else "scalar"


def empirical_entropy(counts) -> float:
    """First-order entropy in bits/symbol of a distribution given by its counts."""
    counts = np.asarray(counts).tolist()
    if not counts:
        raise ValueError("empty frequency table")
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts)


def compression_ratio(original_bits: int, compressed_bits: int) -> float:
    if original_bits <= 0 or compressed_bits <= 0:
        raise ValueError("bit counts must be positive")
    return original_bits / compressed_bits


def psnr(a: Image, b: Image) -> float:
    """Peak signal-to-noise ratio in dB; infinity for identical images."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    mse = np.mean(diff * diff)
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


@dataclass
class CompressionReport:
    """One CSV row; only a reduced row has an `improvement_pct`, set by `bench_image`."""

    image: str
    group_size: int
    dc_diff: bool
    entropy_bits: float
    l_avg: float
    payload_cr: float
    file_cr: float
    psnr_db: float
    improvement_pct: float | None = None

    CSV_HEADER = (
        "image,mode,group_size,dc_diff,entropy_bits,l_avg,"
        "payload_cr,file_cr,psnr_db,improvement_pct"
    )

    @property
    def mode(self) -> str:
        return entropy_mode(self.group_size)

    def csv_row(self) -> str:
        imp = "" if self.improvement_pct is None else f"{self.improvement_pct:.4f}"
        psnr_s = "inf" if math.isinf(self.psnr_db) else f"{self.psnr_db:.4f}"
        return (
            f"{self.image},{self.mode},{self.group_size},"
            f"{int(self.dc_diff)},{self.entropy_bits:.6f},{self.l_avg:.6f},"
            f"{self.payload_cr:.6f},{self.file_cr:.6f},{psnr_s},{imp}"
        )
