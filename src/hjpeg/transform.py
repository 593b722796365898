"""Level shift and the orthonormal 2-D DCT pair on 8x8 blocks."""

from __future__ import annotations

import numpy as np

N = 8


def alpha(k: int, n: int = N) -> float:
    """DCT normalization factor: sqrt(1/n) for k == 0, sqrt(2/n) otherwise."""
    if not 0 <= k < n:
        raise ValueError(f"k={k} out of range [0, {n})")
    return np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)


def _basis_matrix(n: int = N) -> np.ndarray:
    """C[i, m] = alpha(i) * cos(pi * (2m + 1) * i / (2n)); orthogonal."""
    i = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    c = np.cos(np.pi * (2 * m + 1) * i / (2 * n))
    scale = np.array([alpha(k, n) for k in range(n)])[:, None]
    return scale * c


_C = _basis_matrix()


def level_shift(block: np.ndarray) -> np.ndarray:
    """Shift unsigned samples [0, 255] to signed [-128, 127]."""
    return np.asarray(block, dtype=np.float64) - 128.0


def level_unshift(block: np.ndarray) -> np.ndarray:
    """Inverse shift: add 128, round half away from zero, clamp to [0, 255]; the
    floor(x + 0.5) below differs from that only at negative ties, which clamp to 0."""
    shifted = np.asarray(block, dtype=np.float64) + 128.0
    return np.clip(np.floor(shifted + 0.5), 0, 255).astype(np.uint8)


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

