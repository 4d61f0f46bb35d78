"""The Mandelbrot kernel (paper §II-A, §III-A).

The flagship EASYPAP assignment: trivially parallel, heavily imbalanced
— pixels inside the set cost ``max_iter`` escape-loop iterations while
far-away pixels escape immediately, so static tile distribution starves
some threads (Fig. 3) and dynamic policies shine (Figs. 4, 6, 8).

The per-tile *work* is the exact number of escape-loop iterations
executed — deterministic, so simulated timelines are reproducible
bit-for-bit across machines.

Each animation iteration applies ``zoom()``, slightly shrinking the
viewport around a fixed point, exactly like the original kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import Kernel, register_kernel, variant
from repro.core.tiling import Tile

__all__ = ["MandelKernel", "mandel_counts", "mandel_counts_frame", "DEFAULT_MAX_ITER"]

DEFAULT_MAX_ITER = 256

# Initial viewport (covers the whole set, with the heavy region off-center
# so static distributions are visibly imbalanced, as in paper Fig. 3).
LEFT, RIGHT = -2.5, 1.5
TOP, BOTTOM = 1.5, -2.5  # heavy black area towards the bottom of the image

# Zoom target: a classic deep-zoom point on the set's boundary.
ZOOM_X, ZOOM_Y = -0.743643887037151, 0.13182590420533
ZOOM_FACTOR = 0.96


def mandel_counts(
    cr: np.ndarray,
    ci: np.ndarray,
    max_iter: int,
    *,
    julia_c: tuple[float, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Escape-iteration counts for a grid of complex points.

    Returns ``(counts, work)`` where ``counts[i, j]`` is the iteration
    at which the point escaped (``max_iter`` if it never did) and
    ``work`` is the total number of inner-loop iterations executed —
    the deterministic cost the simulator charges.

    With ``julia_c`` set, iterates the Julia dynamics instead: z starts
    at the pixel's coordinates and c is the fixed parameter.
    """
    shape = np.broadcast_shapes(cr.shape, ci.shape)
    if julia_c is not None:
        zr = np.broadcast_to(cr, shape).astype(np.float64).copy()
        zi = np.broadcast_to(ci, shape).astype(np.float64).copy()
        cr = np.float64(julia_c[0])
        ci = np.float64(julia_c[1])
    else:
        zr = np.zeros(shape)
        zi = np.zeros(shape)
    counts = np.full(shape, max_iter, dtype=np.int32)
    active = np.ones(shape, dtype=bool)
    work = 0.0
    # dead lanes keep being updated (and may overflow to inf/nan) but are
    # never read again and cost nothing in the work model
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            nactive = int(active.sum())
            if nactive == 0:
                break
            work += nactive
            zr2 = zr * zr
            zi2 = zi * zi
            escaped = active & (zr2 + zi2 > 4.0)
            counts[escaped] = it
            active &= ~escaped
            zi = 2.0 * zr * zi + ci
            zr = zr2 - zi2 + cr
    return counts, work


def _interior_mask(cr: np.ndarray, ci: np.ndarray) -> np.ndarray:
    """Exact membership test for the main cardioid and the period-2 bulb.

    Points inside either region are mathematically guaranteed never to
    escape: the orbit converges to an attracting fixed point (resp.
    2-cycle) whose basin contains the orbit, and the contraction damps
    float64 rounding noise, so the iterated loop would also run all
    ``max_iter`` iterations and leave ``counts`` at ``max_iter``.  Both
    inequalities are strict, so boundary pixels (neutral dynamics) fall
    through to the honest iteration.
    """
    x = cr - 0.25
    y2 = ci * ci
    q = x * x + y2
    cardioid = q * (q + x) < 0.25 * y2
    bulb = (cr + 1.0) * (cr + 1.0) + y2 < 0.0625
    return cardioid | bulb


def mandel_counts_frame(
    cr: np.ndarray,
    ci: np.ndarray,
    max_iter: int,
    *,
    julia_c: tuple[float, float] | None = None,
) -> np.ndarray:
    """Escape counts for a whole frame, optimized for perf mode.

    Bit-identical to :func:`mandel_counts` (the differential suite and
    ``tests/test_fastpath_diff.py`` enforce this), but structured for
    throughput on large grids:

    * interior pixels (main cardioid / period-2 bulb) are settled to
      ``max_iter`` without iterating — see :func:`_interior_mask`;
    * lanes whose float64 state exactly repeats an earlier state (Brent
      cycle detection) are deterministically periodic, hence can never
      escape — they are settled to ``max_iter`` without running out the
      clock;
    * escaped lanes are physically compacted away, so the loop only
      touches live pixels (the reference loop masks but still updates
      every lane);
    * elementwise steps reuse preallocated buffers (``out=``), in an
      order that reproduces the reference arithmetic bit for bit
      (``2.0 * zr`` is an exact power-of-two scaling).

    Returns ``counts`` only; per-pixel work is ``counts + (counts <
    max_iter)`` — escape at iteration ``c`` means ``c + 1`` loop trips.
    """
    shape = np.broadcast_shapes(cr.shape, ci.shape)
    n = int(np.prod(shape))
    counts = np.full(n, max_iter, dtype=np.int32)
    if julia_c is not None:
        zr = np.broadcast_to(cr, shape).astype(np.float64).reshape(-1).copy()
        zi = np.broadcast_to(ci, shape).astype(np.float64).reshape(-1).copy()
        crv: np.ndarray | np.float64 = np.float64(julia_c[0])
        civ: np.ndarray | np.float64 = np.float64(julia_c[1])
        idx = np.arange(n, dtype=np.intp)
    else:
        # _interior_mask broadcasts the (1, w) row against the (h, 1)
        # column directly; exterior lane coordinates are then gathered
        # from the 1-D axes without materializing the full grids
        idx = np.nonzero(~_interior_mask(cr, ci).reshape(-1))[0]
        crf = np.asarray(cr, dtype=np.float64).reshape(-1)
        cif = np.asarray(ci, dtype=np.float64).reshape(-1)
        w = shape[1] if len(shape) == 2 else 1
        if len(shape) == 2 and cr.shape == (1, w) and ci.shape == (shape[0], 1):
            crv = crf[idx % w]
            civ = cif[idx // w]
        else:
            crv = np.ascontiguousarray(
                np.broadcast_to(cr, shape), dtype=np.float64
            ).reshape(-1)[idx]
            civ = np.ascontiguousarray(
                np.broadcast_to(ci, shape), dtype=np.float64
            ).reshape(-1)[idx]
        zr = np.zeros(idx.size)
        zi = np.zeros(idx.size)
    # Cache blocking: iterating a block of lanes to completion keeps its
    # whole working set (~75 bytes/lane across state + scratch arrays)
    # L2-resident across all max_iter passes, instead of streaming
    # multi-megabyte arrays through DRAM once per elementwise op.  Lanes
    # are independent, so the split cannot change any count; blocks over
    # quick-escape regions also retire after a handful of iterations.
    for start in range(0, idx.size, _FRAME_BLOCK):
        sl = slice(start, start + _FRAME_BLOCK)
        _iterate_lanes(
            zr[sl], zi[sl],
            crv if np.isscalar(crv) or crv.ndim == 0 else crv[sl],
            civ if np.isscalar(civ) or civ.ndim == 0 else civ[sl],
            idx[sl], counts, max_iter,
        )
    return counts.reshape(shape)


#: lanes per block — large enough that numpy per-call overhead is
#: negligible, small enough that quick-escape regions retire early
#: (measured optimum on 512^2 frames; the exact value is not critical)
_FRAME_BLOCK = 1 << 16


def _iterate_lanes(zr, zi, crv, civ, idx, counts, max_iter):
    """Run the escape loop for one block of lanes, writing ``counts[idx]``.

    ``crv``/``civ`` may be scalars (julia mode) or per-lane arrays.

    Retired lanes are *NaN-poisoned* instead of masked: writing NaN into
    ``zr2`` makes the next update drive ``zr`` (and every later ``zr2``,
    ``|z|^2`` and Brent comparison) to NaN, and NaN compares False, so
    a retired lane can never re-trigger the escape or cycle tests.  That
    removes the per-iteration ``active``-mask traffic entirely; live
    lanes are recovered exactly at compaction time via ``isnan`` (live
    orbits are bounded by the escape test, hence always finite).
    """
    m = idx.size
    zr2, zi2, tmp = np.empty(m), np.empty(m), np.empty(m)
    esc, cyc = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    # Brent: checkpoint orbit state at powers of two; an exact (zr, zi)
    # match against the checkpoint proves the float orbit is periodic
    sr, si = zr.copy(), zi.copy()
    next_ckpt = 1
    nactive = m
    per_lane_c = not (np.isscalar(crv) or crv.ndim == 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            if nactive == 0:
                break
            if nactive * 2 < idx.size:
                live = ~np.isnan(zr)
                zr, zi, sr, si, idx = zr[live], zi[live], sr[live], si[live], idx[live]
                if per_lane_c:
                    crv, civ = crv[live], civ[live]
                m = nactive
                zr2, zi2, tmp = np.empty(m), np.empty(m), np.empty(m)
                esc, cyc = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
            np.multiply(zr, zr, out=zr2)
            np.multiply(zi, zi, out=zi2)
            np.add(zr2, zi2, out=tmp)
            np.greater(tmp, 4.0, out=esc)  # NaN > 4.0 is False: dead stay dead
            nesc = int(np.count_nonzero(esc))
            if nesc:
                counts[idx[esc]] = it
                zr2[esc] = np.nan  # poison: the update below spreads it to zr
                nactive -= nesc
            np.multiply(zr, 2.0, out=tmp)
            np.multiply(tmp, zi, out=zi)
            np.add(zi, civ, out=zi)
            np.subtract(zr2, zi2, out=zr)
            np.add(zr, crv, out=zr)
            if it >= 16 and (it & 3) == 0:
                # orbits need a few iterations to settle onto their
                # attracting cycle, and a *delayed* detection is free of
                # consequence (the lane just iterates longer toward the
                # same max_iter count) — so test every 4th iteration only
                np.equal(zr, sr, out=cyc)
                np.equal(zi, si, out=esc)
                cyc &= esc
                ncyc = int(np.count_nonzero(cyc))
                if ncyc:  # periodic lanes keep counts == max_iter
                    zr[cyc] = np.nan
                    nactive -= ncyc
            if it + 1 == next_ckpt:
                np.copyto(sr, zr)
                np.copyto(si, zi)
                next_ckpt *= 2


def _ramp(counts: np.ndarray, max_iter: int) -> np.ndarray:
    """Map escape counts to packed RGBA (set members are black)."""
    t = counts.astype(np.float64) / max_iter
    inside = counts >= max_iter
    r = np.where(inside, 0, 255.0 * np.abs(np.sin(3.0 + 7.0 * t)))
    g = np.where(inside, 0, 255.0 * np.abs(np.sin(1.0 + 11.0 * t)))
    b = np.where(inside, 0, 255.0 * np.abs(np.sin(4.0 + 5.0 * t)))
    return (
        (r.astype(np.uint32) << 24)
        | (g.astype(np.uint32) << 16)
        | (b.astype(np.uint32) << 8)
        | np.uint32(0xFF)
    )


@register_kernel
class MandelKernel(Kernel):
    """Kernel ``mandel`` with variants seq / tiled / omp / omp_tiled."""

    name = "mandel"

    def init(self, ctx) -> None:
        """Parse ``--arg``: an integer sets max_iter; the form
        ``julia[:cr:ci[:max_iter]]`` switches to the Julia set of c
        (default c = -0.8 + 0.156i, a classic dendrite)."""
        max_iter = DEFAULT_MAX_ITER
        julia_c = None
        arg = (ctx.arg or "").strip()
        if arg.lower().startswith("julia"):
            parts = arg.split(":")
            cr_, ci_ = -0.8, 0.156
            if len(parts) >= 3:
                cr_, ci_ = float(parts[1]), float(parts[2])
            if len(parts) >= 4:
                max_iter = int(parts[3])
            julia_c = (cr_, ci_)
        elif arg:
            try:
                max_iter = int(arg)
            except ValueError:
                pass
        ctx.data["max_iter"] = max_iter
        ctx.data["julia_c"] = julia_c
        if julia_c is not None:
            # Julia sets live in the unit-ish disk; center the view
            ctx.data["view"] = [-1.8, 1.8, 1.8, -1.8]
        else:
            ctx.data["view"] = [LEFT, RIGHT, TOP, BOTTOM]

    # -- coordinate helpers ----------------------------------------------------
    @staticmethod
    def _coords(ctx, x: int, y: int, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
        left, right, top, bottom = ctx.data["view"]
        dim = ctx.dim
        xstep = (right - left) / dim
        ystep = (top - bottom) / dim
        cr = left + (x + np.arange(w)) * xstep
        ci = top - (y + np.arange(h)) * ystep
        return cr[np.newaxis, :], ci[:, np.newaxis]

    def _rect_counts(self, ctx, x: int, y: int, w: int, h: int):
        """Escape counts + work for a rectangle."""
        cr, ci = self._coords(ctx, x, y, w, h)
        return mandel_counts(cr, ci, ctx.data["max_iter"], julia_c=ctx.data.get("julia_c"))

    def do_tile(self, ctx, tile: Tile) -> float:
        """Compute one tile; returns its work (escape iterations executed)."""
        x, y, w, h = tile.as_rect()
        counts, work = self._rect_counts(ctx, x, y, w, h)
        ctx.img.cur_view(y, x, h, w, mode="w")[:] = _ramp(counts, ctx.data["max_iter"])
        return work

    # -- whole-frame fast path (perf mode) -----------------------------------
    def _frame_contrib(self, ctx) -> np.ndarray:
        """Compute the full frame in one batch; return each pixel's
        escape-loop iteration count (its contribution to *work*).

        Pixel coordinates are ``left + j * xstep`` whether computed per
        tile or whole-frame (the integer offset addition is exact), and
        every escape-loop operation is elementwise — so counts, image
        and per-pixel work are bit-identical to the tiled path.
        A pixel that escapes at iteration ``c`` was active for ``c + 1``
        loop iterations; a pixel that never escapes for ``max_iter``.
        """
        max_iter = ctx.data["max_iter"]
        cr, ci = self._coords(ctx, 0, 0, ctx.dim, ctx.dim_y)
        counts = mandel_counts_frame(cr, ci, max_iter, julia_c=ctx.data.get("julia_c"))
        if max_iter <= 1 << 16:
            # counts take at most max_iter + 1 distinct values: render the
            # color ramp once per value and gather — _ramp itself builds
            # the table, so every pixel gets the exact per-tile color
            ramp = _ramp(np.arange(max_iter + 1), max_iter)[counts]
        else:
            ramp = _ramp(counts, max_iter)
        ctx.img.cur_view(0, 0, ctx.dim_y, ctx.dim, mode="w")[:] = ramp
        return counts.astype(np.int64) + (counts < max_iter)

    def compute_frame(self, ctx, tiles) -> np.ndarray | None:
        """Whole-frame batch execution over tiles (perf-mode fast path)."""
        if len(tiles) != len(ctx.grid):
            return None
        per_tile = ctx.grid.tile_reduce(self._frame_contrib(ctx))
        return per_tile.ravel()[ctx.grid.tile_index_array(tiles)].astype(np.float64)

    def compute_frame_rows(self, ctx, rows) -> np.ndarray | None:
        """Whole-frame batch execution over pixel rows (seq/omp variants)."""
        if len(rows) != ctx.dim_y:
            return None
        per_row = self._frame_contrib(ctx).sum(axis=1)
        return per_row[np.asarray(rows, dtype=np.intp)].astype(np.float64)

    def zoom(self, ctx) -> None:
        """Shrink the viewport around the zoom point (one animation step)."""
        left, right, top, bottom = ctx.data["view"]
        zx, zy = (0.0, 0.0) if ctx.data.get("julia_c") else (ZOOM_X, ZOOM_Y)
        f = ZOOM_FACTOR
        ctx.data["view"] = [
            zx + (left - zx) * f,
            zx + (right - zx) * f,
            zy + (top - zy) * f,
            zy + (bottom - zy) * f,
        ]

    # -- variants ---------------------------------------------------------------
    @variant("seq")
    def compute_seq(self, ctx, nb_iter: int) -> int:
        """Whole-image scan, one virtual task per pixel row (Fig. 1)."""
        rows = list(range(ctx.dim_y))
        for _ in ctx.iterations(nb_iter):
            ctx.sequential_for(
                lambda row: self._do_row(ctx, row), rows, kind="row",
                frame=self.compute_frame_rows,
            )
            self.zoom(ctx)
        return 0

    def _do_row(self, ctx, row: int) -> float:
        counts, work = self._rect_counts(ctx, 0, row, ctx.dim, 1)
        ctx.img.cur_view(row, 0, 1, ctx.dim, mode="w")[:] = _ramp(
            counts, ctx.data["max_iter"]
        )
        return work

    @variant("tiled")
    def compute_tiled(self, ctx, nb_iter: int) -> int:
        """Sequential, tile by tile (the instrumented single-thread code)."""
        for _ in ctx.iterations(nb_iter):
            ctx.sequential_for(lambda t: self.do_tile(ctx, t), frame=self.compute_frame)
            self.zoom(ctx)
        return 0

    @variant("omp")
    def compute_omp(self, ctx, nb_iter: int) -> int:
        """``#pragma omp parallel for`` over image lines (§II-A)."""
        rows = list(range(ctx.dim_y))
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(
                ctx.body(self._do_row), rows, kind="row",
                frame=self.compute_frame_rows,
            )
            self.zoom(ctx)
        return 0

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        """``collapse(2)`` tile loop under the configured schedule (Fig. 2)."""
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(ctx.body(self.do_tile), frame=self.compute_frame)
            ctx.run_on_master(lambda: self.zoom(ctx))
        return 0

    @variant("ocl")
    def compute_ocl(self, ctx, nb_iter: int) -> int:
        """OpenCL-style execution on the SIMT device simulator: one
        work-group per tile, lockstep lanes — with profiling events,
        the extension the paper lists as future work (§V)."""
        from repro.errors import ConfigError
        from repro.gpu.device import DeviceSpec, GpuDevice
        from repro.omp.parallel import clock_after

        if ctx.dim % ctx.grid.tile_w or ctx.dim_y % ctx.grid.tile_h:
            raise ConfigError("ocl variant needs tile sizes dividing the image")
        device = GpuDevice(DeviceSpec(num_cus=ctx.nthreads), model=ctx.model)
        max_iter = ctx.data["max_iter"]
        for _ in ctx.iterations(nb_iter):
            cr, ci = self._coords(ctx, 0, 0, ctx.dim, ctx.dim_y)
            counts, _ = mandel_counts(
                cr, ci, max_iter, julia_c=ctx.data.get("julia_c")
            )
            ctx.img.cur[:] = _ramp(counts, max_iter)
            launch = device.launch(
                counts.astype(np.float64),
                group_w=ctx.grid.tile_w,
                group_h=ctx.grid.tile_h,
                items=list(ctx.grid),
                start_time=ctx.vclock,
                meta={"iteration": ctx.iteration, "kind": "ocl"},
                transfer_out_bytes=ctx.dim * ctx.dim_y * 4,  # the frame back
            )
            ctx.data["transfer_fraction"] = launch.transfer_fraction
            ctx.data["divergence"] = launch.divergence_penalty
            ctx.bus.counter("gpu_lane_work", launch.total_lane_work)
            ctx.bus.counter("gpu_lockstep_work", launch.total_lockstep_work)
            ctx.vclock = clock_after(ctx.model, ctx.vclock, launch.makespan)
            ctx.bus.publish_region(launch.timeline)
            self.zoom(ctx)
        return 0
