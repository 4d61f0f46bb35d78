"""Blocked LU factorization: the wavefront-DAG workload.

The first kernel whose iteration space is *not* the tile grid: a
``dim x dim`` matrix is factorized in place by blocked right-looking
LU elimination (unpivoted — the matrix is made strictly diagonally
dominant, so every pivot is safe), and each block operation is one
item of a :class:`~repro.core.domains.WavefrontDomain` whose edges
encode the data flow between elimination steps.

This is the workload ROADMAP's "scenario diversity" item asks for:
dependency waves make ``static`` scheduling *visibly* lose — a
statically assigned CPU idles whenever its next block's predecessors
are still in flight, while ``dynamic``/stealing keep pulling whatever
became ready.  Compare::

    easypap -k lu_wavefront -v omp_tiled --schedule static -t
    easypap -k lu_wavefront -v omp_tiled --schedule dynamic -t

Block bodies run through plain NumPy loops over pivots — identical
float operations in identical order on every backend, so sim, threads
and procs produce bit-identical factors.  The whole-frame fast path
(:meth:`LuWavefrontKernel.compute_frame`) runs one elimination step at
a time, each panel solve over the whole panel in one call: the solves
are elementwise per column (row panel) and per row (column panel), so
the bytes equal the per-block calls.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.domains import WavefrontDomain, WaveTask
from repro.core.kernel import Kernel, register_kernel, variant

__all__ = [
    "LuWavefrontKernel", "block_work", "lu_diag", "trsm_row", "trsm_col", "gemm_trail",
]


def lu_diag(a: np.ndarray) -> None:
    """Unpivoted in-place LU of a square block: L (unit lower) and U
    share the storage, multipliers below the diagonal."""
    n = a.shape[0]
    for p in range(n - 1):
        a[p + 1 :, p] /= a[p, p]
        a[p + 1 :, p + 1 :] -= a[p + 1 :, p, None] * a[p, p + 1 :]


def trsm_row(lkk: np.ndarray, b: np.ndarray) -> None:
    """Solve ``L_kk X = B`` in place (unit lower triangular forward
    substitution) — the row-panel update ``U_kj``."""
    n = lkk.shape[0]
    for p in range(n - 1):
        b[p + 1 :, :] -= lkk[p + 1 :, p, None] * b[p, :]


def trsm_col(ukk: np.ndarray, b: np.ndarray) -> None:
    """Solve ``X U_kk = B`` in place (upper triangular back
    substitution on columns) — the column-panel update ``L_ik``."""
    n = ukk.shape[0]
    for p in range(n):
        b[:, p] /= ukk[p, p]
        if p + 1 < n:
            b[:, p + 1 :] -= b[:, p, None] * ukk[p, p + 1 :]


def gemm_trail(aik: np.ndarray, akj: np.ndarray, aij: np.ndarray) -> None:
    """Trailing update ``A_ij -= A_ik @ A_kj``."""
    aij -= aik @ akj


def block_work(task: WaveTask, kw: int) -> float:
    """Flop count of one block operation, its work units; ``kw`` is the
    width of the step's diagonal block (the inner dimension of a trail
    product)."""
    h, w = task.h, task.w
    if task.op == "diag":
        return (h * h * h) / 3.0
    if task.op == "row":
        return float(h * h * w)
    if task.op == "col":
        return float(h * w * w)
    return float(2 * h * w * kw)


@register_kernel
class LuWavefrontKernel(Kernel):
    """Kernel ``lu_wavefront`` with variants seq / omp_tiled."""

    name = "lu_wavefront"
    default_domain = "wavefront"

    def init(self, ctx) -> None:
        rng = ctx.rng
        n = ctx.dim
        mat = rng.standard_normal((n, n))
        # strict diagonal dominance: unpivoted elimination stays stable
        mat[np.arange(n), np.arange(n)] = np.abs(mat).sum(axis=1) + 1.0
        ctx.data["mat"] = mat
        ctx.data["mat0"] = mat.copy()

    def refresh_img(self, ctx) -> None:
        mat = ctx.data.get("mat")
        if mat is None:
            return
        mag = np.log1p(np.abs(mat))
        top = float(mag.max()) or 1.0
        v = (255.0 * mag / top).astype(np.uint32)
        ctx.img.cur[:] = (v << 24) | (v << 16) | (v << 8) | np.uint32(0xFF)

    def _reset(self, ctx) -> None:
        ctx.data["mat"][:] = ctx.data["mat0"]

    def do_block(self, ctx, task: WaveTask) -> float:
        """One block operation; returns its flop count as work units.

        The heterogeneous costs (cubic diag, quadratic panels, gemm
        trail) are what give the wavefront its characteristic Gantt
        shape — waves thin out as the trailing matrix shrinks.
        """
        mat = ctx.data["mat"]
        dom = ctx.domain
        k = task.step
        kx, ky, kw, kh = dom.block_rect(k, k)
        x, y, w, h = task.x, task.y, task.w, task.h
        blk = mat[y : y + h, x : x + w]
        if task.op == "diag":
            ctx.declare_access(
                reads=[("mat", x, y, w, h)], writes=[("mat", x, y, w, h)]
            )
            lu_diag(blk)
            return block_work(task, kw)
        diag = mat[ky : ky + kh, kx : kx + kw]
        if task.op == "row":
            ctx.declare_access(
                reads=[("mat", kx, ky, kw, kh), ("mat", x, y, w, h)],
                writes=[("mat", x, y, w, h)],
            )
            trsm_row(diag, blk)
            return block_work(task, kw)
        if task.op == "col":
            ctx.declare_access(
                reads=[("mat", kx, ky, kw, kh), ("mat", x, y, w, h)],
                writes=[("mat", x, y, w, h)],
            )
            trsm_col(diag, blk)
            return block_work(task, kw)
        # trail: A_ij -= A_ik @ A_kj
        ix, iy, iw, ih = dom.block_rect(task.row, k)
        jx, jy, jw, jh = dom.block_rect(k, task.col)
        ctx.declare_access(
            reads=[
                ("mat", ix, iy, iw, ih),
                ("mat", jx, jy, jw, jh),
                ("mat", x, y, w, h),
            ],
            writes=[("mat", x, y, w, h)],
        )
        gemm_trail(mat[iy : iy + ih, ix : ix + iw], mat[jy : jy + jh, jx : jx + jw], blk)
        return block_work(task, iw)

    # -- whole-frame fast path (perf mode) ----------------------------------
    def compute_frame(self, ctx, items) -> list[float] | None:
        """The whole factorization, one elimination step at a time.

        Each step factorizes its diagonal block, solves the whole row
        panel ``mat[k0:k1, k1:]`` and the whole column panel
        ``mat[k1:, k0:k1]`` in one call each, then updates every
        trailing block with its own product: one larger matmul could
        sum in another order.  Returns the per-task works in
        enumeration order; declines unless ``items`` is the whole
        wavefront domain.
        """
        dom = ctx.domain
        if not isinstance(dom, WavefrontDomain) or items != list(dom):
            return None
        mat, n, b = ctx.data["mat"], dom.dim_x, dom.block
        for k0 in range(0, n, b):
            k1 = min(k0 + b, n)
            diag = mat[k0:k1, k0:k1]
            lu_diag(diag)
            trsm_row(diag, mat[k0:k1, k1:])
            trsm_col(diag, mat[k1:, k0:k1])
            for i0 in range(k1, n, b):
                for j0 in range(k1, n, b):
                    gemm_trail(mat[i0 : i0 + b, k0:k1], mat[k0:k1, j0 : j0 + b],
                               mat[i0 : i0 + b, j0 : j0 + b])
        # a trail's inner dimension is a whole block: only the last
        # step's diagonal block is clipped, and that step has no trail
        return [block_work(t, b) for t in items]

    @variant("seq")
    def compute_seq(self, ctx, nb_iter: int) -> int:
        for _ in ctx.iterations(nb_iter):
            ctx.run_on_master(lambda: self._reset(ctx))
            ctx.sequential_for(ctx.body(self.do_block), frame=self.compute_frame)
        return 0

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        """Worksharing over the wavefront domain: ``parallel_for`` sees
        the dependency edges and schedules the region as a policy-aware
        DAG (see :func:`repro.omp.parallel.parallel_for`), which the
        whole-frame fast path keeps."""
        for _ in ctx.iterations(nb_iter):
            ctx.run_on_master(lambda: self._reset(ctx))
            ctx.parallel_for(ctx.body(self.do_block), frame=self.compute_frame)
        return 0

    def finalize(self, ctx) -> None:
        # cheap internal consistency check: L @ U must reconstruct the
        # original matrix (dominance keeps the residual tiny)
        mat = ctx.data.get("mat")
        if mat is None or ctx.dim > 512:
            return
        lower = np.tril(mat, -1) + np.eye(ctx.dim)
        upper = np.triu(mat)
        # L @ U from products of at most 64x64: those stay on one BLAS
        # thread, where a threaded 128x128 product stalls on small hosts
        n, b = ctx.dim, 64
        lu = np.zeros_like(mat)
        for i, j, k in itertools.product(range(0, n, b), repeat=3):
            lu[i : i + b, j : j + b] += lower[i : i + b, k : k + b] @ upper[k : k + b, j : j + b]
        residual = np.abs(lu - ctx.data["mat0"]).max()
        scale = np.abs(ctx.data["mat0"]).max()
        if residual > 1e-8 * max(scale, 1.0):
            raise AssertionError(
                f"LU factorization residual {residual:.3e} too large"
            )
