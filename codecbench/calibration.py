"""Frozen host-speed kernel: a drift diagnostic, never divided into a rate.

It mirrors the two kinds of work the codec does: a pure-Python loop over
small ints with dict lookups and bit packing, like the entropy stage, and a
batched 8x8 matrix product, like the DCT front end. Do not change it: its
only value is that it stays the same across commits, so a slow
`host.calibration_ms` marks a run that landed on a slow host.
"""

from __future__ import annotations

import time

import numpy as np

_LOOP_N = 60_000
_BLOCKS = np.random.default_rng(12345).normal(size=(4096, 8, 8))
_BASIS = np.linalg.qr(np.random.default_rng(54321).normal(size=(8, 8)))[0]


def _python_part() -> int:
    counts: dict[int, int] = {}
    acc = 0
    nbits = 0
    out = bytearray()
    x = 1
    for _ in range(_LOOP_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        sym = (x >> 16) % 61 - 30
        counts[sym] = counts.get(sym, 0) + 1
        acc = (acc << 5) | (sym & 31)
        nbits += 5
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1
    return len(out) + len(counts)


def _numpy_part() -> float:
    coeffs = _BASIS @ _BLOCKS @ _BASIS.T
    return float((_BASIS.T @ coeffs @ _BASIS).sum())


def kernel_seconds() -> float:
    """Wall seconds of one pass of the frozen kernel."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0
