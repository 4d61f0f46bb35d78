"""Frozen full-frame copy of :func:`repro.kernels.api.synthetic_picture`.

It builds every channel on the whole ``np.mgrid`` and tests each disc
against the whole frame.  The library version builds the channels from
1-D ramps and tests each disc inside its bounding box only; it must
draw the same random numbers in the same order and give the same
pixels, which ``tests/test_kernels_api.py`` checks against this copy.
"""

from __future__ import annotations

import numpy as np


def synthetic_picture(dim: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:dim, 0:dim]
    r = (255.0 * xx / max(dim - 1, 1)).astype(np.int64)
    g = (255.0 * yy / max(dim - 1, 1)).astype(np.int64)
    b = (128.0 + 127.0 * np.sin(2.0 * np.pi * (xx + yy) / max(dim / 4.0, 1.0))).astype(
        np.int64
    )
    for _ in range(8):
        cy, cx = rng.integers(0, dim, size=2)
        rad = int(rng.integers(max(dim // 16, 2), max(dim // 4, 3)))
        color = rng.integers(0, 256, size=3)
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad
        r[mask], g[mask], b[mask] = color
    noise = rng.integers(-10, 11, size=(dim, dim))
    r = np.clip(r + noise, 0, 255)
    g = np.clip(g + noise, 0, 255)
    b = np.clip(b + noise, 0, 255)
    return (
        (r.astype(np.uint32) << 24)
        | (g.astype(np.uint32) << 16)
        | (b.astype(np.uint32) << 8)
        | np.uint32(0xFF)
    )
