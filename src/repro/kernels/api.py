"""Shared kernel helpers: channel math, halos, synthetic pictures.

EASYPAP ships with image assets; being self-contained, we synthesize
deterministic pictures instead (:func:`synthetic_picture`): the blur and
pixelize assignments only need "a picture with structure".

Backend-portable tile bodies
----------------------------
Kernels should pass worksharing bodies as ``ctx.body(self.do_tile)``
rather than ``lambda t: self.do_tile(ctx, t)``.  Both behave
identically on the ``sim`` and ``threads`` backends, but only the
former can cross the process boundary of ``backend="procs"`` (workers
re-resolve the kernel method by name; closures cannot be pickled).
Auxiliary NumPy arrays kept in ``ctx.data`` are automatically mirrored
into shared memory under ``procs`` — plain in-place writes from tile
bodies (``ctx.data["changes"][row, col] = True``) are visible to the
master; *scalar* assignments made inside tile bodies are merged back
after the region and must therefore be idempotent (convergence flags),
or better, expressed as a ``ctx.parallel_reduce``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigError

__all__ = [
    "require_square",
    "split_channels",
    "merge_channels",
    "clipped_halo",
    "halo_region",
    "synthetic_picture",
    "tile_works",
    "FrameScratch",
    "SCALAR_PIXEL_WORK",
    "VECTOR_PIXEL_WORK",
]

#: work units charged per pixel computed through a scalar, branchy code
#: path (the student's conditional-laden stencil loop).
SCALAR_PIXEL_WORK = 40.0

#: work units per pixel through a branch-free, auto-vectorized path —
#: the x8 AVX2 factor the paper measures on inner blur tiles (§III-B).
VECTOR_PIXEL_WORK = SCALAR_PIXEL_WORK / 8.0


def require_square(ctx) -> None:
    """Reject a non-square image: the kernel's state is ``dim x dim``.

    Called first thing in ``init``, so the fast and the reference path
    (and every MPI rank) refuse the same configs the same way.
    """
    if ctx.dim_y != ctx.dim:
        raise ConfigError(
            f"kernel {ctx.config.kernel!r} needs a square image, "
            f"got {ctx.dim}x{ctx.dim_y} (drop --size-y)"
        )


def tile_works(tiles, per_pixel_work: float) -> np.ndarray:
    """Work vector of area-proportional tiles (whole-frame fast path).

    ``tile.area * per_pixel_work`` for each tile, as a float64 array —
    bit-identical to the per-tile bodies' returns (int→float conversion
    and the product are both exact IEEE operations).
    """
    areas = np.fromiter((t.area for t in tiles), dtype=np.float64, count=len(tiles))
    return areas * per_pixel_work


class FrameScratch:
    """Work buffers of one kernel instance's whole-frame steps.

    ``get(name, shape, dtype)`` returns the same zero-filled buffer on
    every call with that shape and dtype, and allocates a new one when a
    reused instance meets another shape, so a frame step allocates
    nothing per iteration.  Zero halos a step never writes stay zero.

    The buffers live on the kernel instance, never at module level:
    ``get_kernel`` builds one instance per run and per MPI rank, while
    in-process MPI ranks and concurrent runs share one interpreter.  They
    stay out of ``ctx.data`` too, whose arrays procs maps to shared
    memory and the differential tests compare key by key.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._bufs[name] = np.zeros(shape, dtype=dtype)
        return buf


def split_channels(pixels: np.ndarray) -> np.ndarray:
    """``(h, w)`` uint32 -> ``(4, h, w)`` float64 channel planes (r, g, b, a)."""
    return np.stack(
        [
            (pixels >> 24 & 0xFF),
            (pixels >> 16 & 0xFF),
            (pixels >> 8 & 0xFF),
            (pixels & 0xFF),
        ]
    ).astype(np.float64)


def merge_channels(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_channels` (values are clipped to [0, 255])."""
    p = np.clip(np.rint(planes), 0, 255).astype(np.uint32)
    return (p[0] << 24) | (p[1] << 16) | (p[2] << 8) | p[3]


def clipped_halo(
    img: np.ndarray, x: int, y: int, w: int, h: int, halo: int = 1
) -> tuple[np.ndarray, int, int]:
    """A view of the tile plus up to ``halo`` pixels around it, clipped
    to the image; returns ``(region, oy, ox)`` where (oy, ox) locate the
    tile's origin inside the region."""
    dim_y, dim_x = img.shape
    y0 = max(y - halo, 0)
    x0 = max(x - halo, 0)
    y1 = min(y + h + halo, dim_y)
    x1 = min(x + w + halo, dim_x)
    return img[y0:y1, x0:x1], y - y0, x - x0


def halo_region(
    buf: str, x: int, y: int, w: int, h: int, dim: int, halo: int = 1
) -> tuple[str, int, int, int, int]:
    """The footprint region of a tile plus its halo, clipped to the image.

    The declaration counterpart of :func:`clipped_halo`, for stencil
    kernels that read raw arrays and describe their reads through
    ``ctx.declare_access`` (see :mod:`repro.core.access`).
    """
    x0, y0 = max(x - halo, 0), max(y - halo, 0)
    x1, y1 = min(x + w + halo, dim), min(y + h + halo, dim)
    return (buf, x0, y0, x1 - x0, y1 - y0)


def synthetic_picture(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A deterministic colorful test picture (gradient + discs + noise).

    Plays the role of EASYPAP's sample images for blur/pixelize: it has
    smooth areas, hard edges and texture, so filtering is visible.
    Red and green ramp along x and y, blue is a wave along x + y; each
    disc is tested only inside its clipped bounding box.
    """
    ramp = (255.0 * np.arange(dim) / max(dim - 1, 1)).astype(np.int64)
    wave = (
        128.0 + 127.0 * np.sin(2.0 * np.pi * np.arange(2 * dim - 1) / max(dim / 4.0, 1.0))
    ).astype(np.int64)
    r = np.empty((dim, dim), dtype=np.int64)
    r[:] = ramp
    g = np.empty_like(r)
    g[:] = ramp[:, None]
    b = sliding_window_view(wave, dim).copy()  # b[y, x] = wave[y + x]
    # hard-edged discs of saturated colors
    for _ in range(8):
        cy, cx = rng.integers(0, dim, size=2)
        rad = int(rng.integers(max(dim // 16, 2), max(dim // 4, 3)))
        color = rng.integers(0, 256, size=3)
        y0, y1 = max(cy - rad, 0), min(cy + rad + 1, dim)
        x0, x1 = max(cx - rad, 0), min(cx + rad + 1, dim)
        dy, dx = np.ogrid[y0 - cy:y1 - cy, x0 - cx:x1 - cx]
        mask = dy * dy + dx * dx <= rad * rad
        for chan, value in zip((r, g, b), color):
            chan[y0:y1, x0:x1][mask] = value
    noise = rng.integers(-10, 11, size=(dim, dim))
    for chan in (r, g, b):
        chan += noise
        np.clip(chan, 0, 255, out=chan)
    r <<= 24
    g <<= 16
    b <<= 8
    r |= g
    r |= b
    r |= 0xFF
    return r.astype(np.uint32)
