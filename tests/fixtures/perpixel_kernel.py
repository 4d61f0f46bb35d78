"""A blur declaring one 1x1 read per pixel (``--load``-style extension file).

``blur_perpixel`` is the tiled blur with a footprint of one read region
per pixel of its tile instead of one halo rectangle: a 16x16 tile
declares 256 reads.  That many regions per task is what a student's
pixel-by-pixel ``ctx.declare_access`` loop produces, and it gives the
procs telemetry tests a footprint volume large enough to show whether
every task's records reach the master.
"""

from __future__ import annotations

from repro.core.kernel import register_kernel
from repro.kernels.blur import BlurKernel


@register_kernel
class PerPixelBlurKernel(BlurKernel):
    """Kernel ``blur_perpixel``: blur with per-pixel read footprints."""

    name = "blur_perpixel"

    def _declare_tile_access(self, ctx, x: int, y: int, w: int, h: int) -> None:
        ctx.declare_access(
            reads=[("cur", i, j, 1, 1) for j in range(y, y + h) for i in range(x, x + w)],
            writes=[("next", x, y, w, h)],
        )
