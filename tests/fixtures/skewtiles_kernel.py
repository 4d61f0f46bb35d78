"""A deliberately unbalanced kernel (``--load``-style extension file).

The first half of the tiles sleeps, the second half returns at once.
Under ``nonmonotonic:dynamic`` on two CPUs the second CPU runs out of
its block long before the first, so a real team is sure to steal.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kernel import Kernel, register_kernel, variant
from repro.core.tiling import Tile

TILE_SLEEP = 0.005  # seconds of pure wall-clock per slow tile


@register_kernel
class SkewTilesKernel(Kernel):
    """Kernel ``skewtiles``: increments every pixel, the top half slowly."""

    name = "skewtiles"

    def do_tile(self, ctx, tile: Tile) -> float:
        if tile.index < len(ctx.grid) // 2:
            time.sleep(TILE_SLEEP)
        x, y, w, h = tile.as_rect()
        view = ctx.img.cur_view(y, x, h, w)
        view += np.uint32(1)
        return float(tile.area)

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(ctx.body(self.do_tile))
        return 0
