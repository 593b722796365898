"""Level shift and the orthonormal 2-D DCT pair on 8x8 blocks."""

from __future__ import annotations

import numpy as np

N = 8


def _basis_matrix() -> np.ndarray:
    """C[i, m] = a(i) * cos(pi * (2m + 1) * i / 16), a(0) = sqrt(1/8), else sqrt(2/8)."""
    i, m = np.arange(N)[:, None], np.arange(N)[None, :]
    c = np.cos(np.pi * (2 * m + 1) * i / (2 * N))
    return np.where(i == 0, np.sqrt(1.0 / N), np.sqrt(2.0 / N)) * c


_C = _basis_matrix()


def level_shift(block: np.ndarray) -> np.ndarray:
    """Shift unsigned samples [0, 255] to signed [-128, 127]."""
    return np.asarray(block, dtype=np.float64) - 128.0


def level_unshift(block: np.ndarray) -> np.ndarray:
    """Inverse shift: add 128, round half away from zero, clamp to [0, 255]; the
    floor(x + 0.5) below differs from that only at negative ties, which clamp to 0.
    The sum with 128 is a new array, and the rounding and clamping work in place
    on it, so the argument is left as it is."""
    pixels = np.asarray(block, dtype=np.float64) + 128.0
    pixels += 0.5
    np.floor(pixels, out=pixels)
    np.clip(pixels, 0, 255, out=pixels)
    return pixels.astype(np.uint8)


def fdct(block: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT of one or more 8x8 blocks (separable, double precision).

    Accepts shape (8, 8) or (n, 8, 8); transforms the trailing two axes.
    """
    b = np.asarray(block, dtype=np.float64)
    return _C @ b @ _C.T


def idct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT; idct(fdct(b)) == b to within float64 round-off."""
    f = np.asarray(coeffs, dtype=np.float64)
    return _C.T @ f @ _C

