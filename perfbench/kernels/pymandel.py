"""``pymandel``: a GIL-bound kernel file for ``--load``.

The Mandelbrot escape loop runs pixel by pixel in plain Python, so the
interpreter holds the GIL for the whole tile: threads cannot overlap
its tiles, processes can.  The benchmark keeps its own copy so that its
inputs do not change when the repository's example kernels do.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import Kernel, register_kernel, variant
from repro.core.tiling import Tile

MAX_ITER = 32


@register_kernel
class PyMandelKernel(Kernel):
    """Scalar-Python Mandelbrot, one pixel at a time."""

    name = "pymandel"

    def do_tile(self, ctx, tile: Tile) -> float:
        x, y, w, h = tile.as_rect()
        dim = ctx.dim
        view = ctx.img.cur_view(y, x, h, w, mode="w")
        for j in range(h):
            ci = -1.25 + 2.5 * (y + j) / dim
            for i in range(w):
                cr = -2.0 + 2.5 * (x + i) / dim
                zr = zi = 0.0
                it = 0
                while it < MAX_ITER and zr * zr + zi * zi < 4.0:
                    zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
                    it += 1
                shade = (255 * it) // MAX_ITER
                view[j, i] = np.uint32((shade << 24) | (shade << 16) | (shade << 8) | 0xFF)
        return float(tile.area * MAX_ITER)

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(ctx.body(self.do_tile))
        return 0
