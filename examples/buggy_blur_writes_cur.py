"""Seeded-buggy example: a blur that writes ``cur`` instead of ``next``.

The kernel ``blur_buggy`` overrides the tiled blur body to blur each
tile *in place*: it reads the 3x3 halo from ``cur`` and writes the
result back into ``cur``, instead of into ``next`` followed by a swap.
Concurrent tiles of the same ``parallel_for`` then read boundary rows
that a neighbouring tile is overwriting — the classic double-buffer
bug of the stencil assignment.

``easypap --load examples/buggy_blur_writes_cur.py -k blur_buggy
--check-races`` reports the read-write races on ``cur`` plus a
``double-buffer`` lint finding telling the student to write into the
paired buffer and swap.
"""

from repro.core.kernel import register_kernel, variant
from repro.kernels.api import SCALAR_PIXEL_WORK, halo_region
from repro.kernels.blur import BlurKernel, blur_rect_vectorized


@register_kernel
class BuggyBlurKernel(BlurKernel):
    """Kernel ``blur_buggy``: tiled blur missing the double buffer."""

    name = "blur_buggy"

    def _do_tile_writes_cur(self, ctx, tile) -> float:
        x, y, w, h = tile.as_rect()
        ctx.declare_access(
            reads=[halo_region("cur", x, y, w, h, ctx.dim)],
            writes=[("cur", x, y, w, h)],  # BUG: should write "next"
        )
        blur_rect_vectorized(ctx.img.cur, ctx.img.cur, x, y, w, h)
        return tile.area * SCALAR_PIXEL_WORK

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(ctx.body(self._do_tile_writes_cur))
            # no swap: the result was (incorrectly) written in place
        return 0


# Structured ground truth about the seeded bug, read by one matcher
# (``repro.staticcheck.expectation_problems``): the variant sweep
# (``python -m repro.analyze --load ...``) checks the static race and a
# dynamic race on the buffer, ``python -m repro.staticcheck ... --expect``
# the static fields alone.
# Keys are (kernel, variant); variants not listed here (the ones
# inherited unchanged from BlurKernel) must NOT be flagged.
EXPECTED_VERDICTS = {
    ("blur_buggy", "omp_tiled"): {
        "verdict": "race",
        "kind": "read-write",
        "buffer": "cur",
        "construct": "par",
        "lines": [29, 30],
        "advice": "double-buffer",
    },
}
