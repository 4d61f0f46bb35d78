"""Seeded-buggy example: a racy ``depend`` clause on a task-based Life.

The kernel ``life_buggy`` updates the cell grid *in place* with one
OpenMP task per tile.  In-place Life is only correct if every task is
ordered against all eight neighbouring tiles (each task reads a
one-cell halo around its tile).  This variant copies the depend clause
of the connected-components kernel — ``depend(in: left) depend(out:
self)`` — which orders a tile against its *left* neighbour only: the
tiles above and below run concurrently while their rows are being read.

``easypap --load examples/buggy_life_taskdeps.py -k life_buggy -v
omp_task --check-races`` reports the read-write races on ``cells`` and
names the missing in-dependence.

The bug is in the *ordering*, not the arithmetic: the variant still
runs to completion (producing wrong pixels on a real machine — here
the simulator executes tasks in submission order, so the race is
latent and only the analyzer sees it).
"""

from repro.core.kernel import register_kernel, variant
from repro.kernels.api import halo_region
from repro.kernels.life import CELL_WORK, LifeKernel, life_step_rect


@register_kernel
class BuggyLifeKernel(LifeKernel):
    """Kernel ``life_buggy``: in-place Life with an incomplete depend clause."""

    name = "life_buggy"

    def _do_tile_inplace(self, ctx, tile) -> float:
        ctx.declare_access(
            reads=[halo_region("cells", tile.x, tile.y, tile.w, tile.h, ctx.dim)],
            writes=[("cells", tile.x, tile.y, tile.w, tile.h)],
        )
        # reads the 3x3 halo of ``cells`` and writes the tile back into
        # ``cells`` — racy against any concurrent neighbour task
        changed = life_step_rect(
            ctx.data["cells"], ctx.data["cells"], tile.y, tile.x, tile.h, tile.w
        )
        ctx.data["changes"][tile.row, tile.col] = changed > 0
        return tile.area * CELL_WORK

    @variant("omp_task")
    def compute_omp_task(self, ctx, nb_iter: int) -> int:
        for it in ctx.iterations(nb_iter):
            self._begin_iter(ctx)
            with ctx.task_region() as tr:
                for t in ctx.grid:
                    tr.task(
                        lambda t=t: self._do_tile_inplace(ctx, t),
                        item=t,
                        # BUG: orders against the left neighbour only;
                        # the up/down/diagonal neighbours — whose rows
                        # this tile reads — are left concurrent
                        reads=[(t.row, t.col - 1)],
                        writes=[(t.row, t.col)],
                    )
            stable = not ctx.run_on_master(lambda: bool(ctx.data["changes"].any()))
            if stable:
                return it
        return 0


# Structured ground truth about the seeded bug, read by one matcher
# (``repro.staticcheck.expectation_problems``): the variant sweep
# (``python -m repro.analyze --load ...``) checks the static race and a
# dynamic race on the buffer, ``python -m repro.staticcheck ... --expect``
# the static fields alone.
# Keys are (kernel, variant); variants not listed here (the ones
# inherited unchanged from LifeKernel) must NOT be flagged.
EXPECTED_VERDICTS = {
    ("life_buggy", "omp_task"): {
        "verdict": "race",
        "kind": "read-write",
        "buffer": "cells",
        "construct": "dag",
        "lines": [33, 34],
        "advice": "missing ordering edge",
    },
}
