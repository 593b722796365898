"""Seeded benchmark inputs.

Each workload is a list of named images plus the codec configurations every
image is run under. The seed moves image content only: sizes, the mix of
image kinds and the configurations are fixed per workload, so the per-op
cost stays comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAMES = ("photo-512", "noise-256", "bench-thumbs")

# (label, entropy_mode, group_size, dc_diff); handed to hjpeg.CodecConfig.
_CONFIGS = {
    "photo-512": [("scalar", "scalar", 1, False), ("g4", "reduced", 4, False),
                  ("g4-dc", "reduced", 4, True)],
    "noise-256": [("scalar", "scalar", 1, False), ("g4", "reduced", 4, False),
                  ("g8", "reduced", 8, False)],
    "bench-thumbs": [("scalar", "scalar", 1, False), ("g4", "reduced", 4, False)],
}

THUMB_COUNT = 96


@dataclass(frozen=True)
class Workload:
    name: str
    images: list  # [(name, (h, w) uint8 array)]
    configs: list  # [(label, entropy_mode, group_size, dc_diff)]


def photo(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Synthetic photo: smooth field, straight edges, discs, light noise.

    Frequencies, step heights, radii and disc levels are fixed; the seed
    moves only phases, positions and the noise. With many features per
    image, compressibility (and so the per-op cost) barely moves with the
    seed, which keeps seed-to-seed spread down to the host's own.
    """
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    y /= max(height - 1, 1)
    x /= max(width - 1, 1)
    field = 100.0 + 50.0 * x + 30.0 * y
    for fx, fy in ((1.0, 0.5), (0.5, 2.0), (2.5, 1.5)):
        field += 15.0 * np.sin(2 * np.pi * (fx * x + fy * y) + rng.uniform(0, 2 * np.pi))
    for k in range(8):  # half-planes: straight edges at spread-out angles
        angle = (k + rng.uniform(0.2, 0.8)) * np.pi / 8
        offset = rng.uniform(-0.3, 0.3)
        side = (x - 0.5) * np.cos(angle) + (y - 0.5) * np.sin(angle) > offset
        field[side] += 20.0 if k % 2 else -20.0
    levels = np.linspace(40.0, 210.0, 24)
    rng.shuffle(levels)
    for radius, level in zip(np.linspace(0.03, 0.1, 24), levels):
        cy, cx = rng.uniform(0.05, 0.95, size=2)
        rows = _span(cy, radius, height)
        cols = _span(cx, radius, width)
        box = (x[rows, cols] - cx) ** 2 + (y[rows, cols] - cy) ** 2 < radius**2
        field[rows, cols][box] = level
    field += rng.normal(0.0, 2.0, size=field.shape)
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def _span(center: float, radius: float, n: int) -> slice:
    """Pixel indices whose normalized coordinate i / (n - 1) may lie within
    radius of center; a disc is drawn in this box only."""
    scale = max(n - 1, 1)
    return slice(max(int(np.floor((center - radius) * scale)), 0),
                 min(int(np.ceil((center + radius) * scale)) + 1, n))


def noise(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


def thumb_sizes() -> list[tuple[int, int]]:
    """96 fixed (h, w) pairs in [8, 48]; most are not multiples of 8."""
    return [(8 + (i * 13) % 41, 8 + (i * 29 + 5) % 41) for i in range(THUMB_COUNT)]


def make(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "photo-512":
        # Four independently drawn 256x256 tiles, on block boundaries: their
        # average compressibility moves far less with the seed than one draw.
        tiles = [photo(rng, 256, 256) for _ in range(4)]
        images = [("photo", np.block([tiles[:2], tiles[2:]]))]
    elif name == "noise-256":
        images = [("noise", noise(rng, 256, 256))]
    elif name == "bench-thumbs":
        images = []
        for i, (h, w) in enumerate(thumb_sizes()):
            kind = noise if i % 4 == 3 else photo
            images.append((f"t{i:02d}", kind(rng, h, w)))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, images, _CONFIGS[name])
