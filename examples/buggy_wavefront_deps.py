"""Seeded-buggy example: a wavefront sweep missing half its ordering.

The kernel ``wavefront_buggy`` relaxes the heat field *in place*
(Gauss-Seidel style): each tile reads the already-updated values of its
left and upper neighbours through its one-cell halo.  That sweep is the
textbook tile-grid wavefront — correct only when every task is ordered
after both the tile to its left *and* the tile above it, so the ready
frontier advances along anti-diagonals.

This variant declares the left in-dependence and forgets the upper one:
rows race ahead of each other, and a tile's halo rows are read while
the tile above is still writing them.

``easypap --load examples/buggy_wavefront_deps.py -k wavefront_buggy
-v omp_taskdep --check-races`` reports the read-write races on
``temp``; ``python -m repro.staticcheck examples/buggy_wavefront_deps.py
--expect`` proves the same missing edge without running the DAG (the
dependence cone of ``(0, -1)`` never covers grid offset ``(-1, 0)``).

The bug is in the *ordering*, not the arithmetic: the simulator runs
tasks in submission order, so the race stays latent until an analyzer
looks.
"""

from repro.core.kernel import register_kernel, variant
from repro.kernels.api import halo_region
from repro.kernels.heat import CELL_WORK, HeatKernel, jacobi_step_rect


@register_kernel
class BuggyWavefrontKernel(HeatKernel):
    """Kernel ``wavefront_buggy``: in-place sweep with a dropped edge."""

    name = "wavefront_buggy"

    def _do_tile_inplace(self, ctx, tile) -> float:
        ctx.declare_access(
            reads=[
                halo_region("temp", tile.x, tile.y, tile.w, tile.h, ctx.dim),
                ("sources", tile.x, tile.y, tile.w, tile.h),
            ],
            writes=[("temp", tile.x, tile.y, tile.w, tile.h)],
        )
        # reads the 3x3 halo of ``temp`` and writes the tile back into
        # ``temp`` — racy against any concurrent neighbour task
        jacobi_step_rect(
            ctx.data["temp"], ctx.data["temp"], ctx.data["sources"],
            tile.y, tile.x, tile.h, tile.w,
        )
        return tile.area * CELL_WORK

    @variant("omp_taskdep")
    def compute_omp_taskdep(self, ctx, nb_iter: int) -> int:
        for _ in ctx.iterations(nb_iter):
            with ctx.task_region() as tr:
                for t in ctx.grid:
                    tr.task(
                        lambda t=t: self._do_tile_inplace(ctx, t),
                        item=t,
                        # BUG: a wavefront needs BOTH the left and the
                        # upper in-dependence; only the left one is
                        # declared, so vertically adjacent tiles run
                        # concurrently while their halo rows are read
                        reads=[(t.row, t.col - 1)],
                        writes=[(t.row, t.col)],
                    )
        return 0


# Structured ground truth about the seeded bug, read by one matcher
# (``repro.staticcheck.expectation_problems``): the variant sweep
# (``python -m repro.analyze --load ...``) checks the static race and a
# dynamic race on the buffer, ``python -m repro.staticcheck ... --expect``
# the static fields alone.
# Keys are (kernel, variant); variants not listed here (the ones
# inherited unchanged from HeatKernel) must NOT be flagged.
EXPECTED_VERDICTS = {
    ("wavefront_buggy", "omp_taskdep"): {
        "verdict": "race",
        "kind": "read-write",
        "buffer": "temp",
        "construct": "dag",
        "lines": [37, 39],
        "advice": "missing ordering edge",
    },
}
