"""Picture blurring: the 2D stencil assignment (paper §III-B).

At each iteration every pixel of the next image receives the average of
the up-to-3x3 neighbourhood read from the current image; buffers swap
between iterations.

Two parallel tiled variants reproduce the Fig. 10 experiment:

* ``omp_tiled`` — the *basic* version: every tile runs the
  conditional-laden code path (per-pixel boundary tests), which does not
  vectorize.  Work model: :data:`SCALAR_PIXEL_WORK` per pixel.
* ``omp_tiled_opt`` — the optimized version: tiles that touch the image
  border keep the branchy path, *inner* tiles run the branch-free bulk
  path which auto-vectorizes (x8 in the paper on AVX2).  Work model:
  :data:`VECTOR_PIXEL_WORK` per inner-tile pixel.

Both compute bit-identical images; only their costs differ — exactly
the paper's story, where the x10 observed task speedup is "mostly
imputable to compiler auto-vectorization".

The pure-Python ``seq`` variant *is* the scalar code (loops and ifs);
it is the correctness oracle for the vectorized paths (tests compare
them on small images).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.kernel import Kernel, register_kernel, variant
from repro.core.tiling import Tile
from repro.kernels.api import (
    SCALAR_PIXEL_WORK,
    VECTOR_PIXEL_WORK,
    clipped_halo,
    halo_region,
    merge_channels,
    split_channels,
    synthetic_picture,
    tile_works,
)

__all__ = ["BlurKernel", "blur_frame", "blur_rect_vectorized", "blur_rect_scalar"]


def blur_rect_vectorized(src: np.ndarray, dst: np.ndarray, x: int, y: int, w: int, h: int) -> None:
    """Blur the rectangle (x, y, w, h) of ``src`` into ``dst``.

    Handles image borders by averaging over the neighbours that exist
    (variable divisor), entirely with NumPy shifts — the "compiled
    bulk code" stand-in.
    """
    dim_y, dim_x = src.shape
    # only the rectangle and its one-pixel halo are read: split just those
    region, oy, ox = clipped_halo(src, x, y, w, h)
    planes = split_channels(region)
    acc = np.zeros((4, h, w))
    cnt = np.zeros((h, w))
    for dy in (-1, 0, 1):
        sy0 = y + dy
        for dx in (-1, 0, 1):
            sx0 = x + dx
            # clip the shifted window to the image
            ty0 = max(0, -sy0)
            tx0 = max(0, -sx0)
            ty1 = h - max(0, sy0 + h - dim_y)
            tx1 = w - max(0, sx0 + w - dim_x)
            if ty0 >= ty1 or tx0 >= tx1:
                continue
            acc[:, ty0:ty1, tx0:tx1] += planes[
                :, oy + dy + ty0 : oy + dy + ty1, ox + dx + tx0 : ox + dx + tx1
            ]
            cnt[ty0:ty1, tx0:tx1] += 1.0
    dst[y : y + h, x : x + w] = merge_channels(acc / cnt)


#: ``_BLUR_LUT[count - 1, sum]`` = the rounded channel mean
#: ``clip(rint(sum / count))``, computed with the same float64 division
#: as :func:`blur_rect_vectorized`, for every neighbourhood size 1..9
_BLUR_LUT = np.clip(
    np.rint(np.arange(9 * 255 + 1) / np.arange(1.0, 10.0)[:, None]), 0, 255
).astype(np.uint8)
#: copies a 16-bit value into the four 16-bit lanes of a uint64
_LANES = np.uint64(0x0001_0001_0001_0001)


@functools.lru_cache(maxsize=8)
def _lut_offsets(h: int, w: int) -> np.ndarray:
    """Per pixel, the start of its row of the flattened :data:`_BLUR_LUT`
    in all four lanes: its count of in-image neighbours (4 in corners,
    6 on edges, 9 inside) picks the row.  Cached per frame shape: built
    per frame, its temporaries cost as much as the blur itself."""
    ny = 1 + (np.arange(h) > 0) + (np.arange(h) < h - 1)
    nx = 1 + (np.arange(w) > 0) + (np.arange(w) < w - 1)
    rows = (np.outer(ny, nx) - 1).astype(np.uint64)
    offsets = rows * (_LANES * np.uint64(_BLUR_LUT.shape[1]))
    offsets.flags.writeable = False
    return offsets


def blur_frame(src: np.ndarray, dst: np.ndarray) -> None:
    """Blur the whole of ``src`` into ``dst``, bit-identical to
    ``blur_rect_vectorized(src, dst, 0, 0, width, height)``.

    Each pixel's four channel bytes are widened into the four 16-bit
    lanes of one ``uint64`` (so byte order does not matter), and the
    3x3 sums are taken separably over a zero-padded copy.  Each
    ``(neighbour count, sum)`` pair is then looked up in
    :data:`_BLUR_LUT`, indexed by the lane itself once offset by its
    table row: at most ``8 * 2296 + 9 * 255 < 2**16``, so no lane ever
    carries into the next.  Only the whole-frame fast path uses it: the
    tile bodies keep the code the Fig. 10 comparison is about.
    """
    h, w = src.shape
    pad = np.zeros((h + 2, w + 2, 4), dtype=np.uint16)
    pad[1:-1, 1:-1] = np.ascontiguousarray(src).view(np.uint8).reshape(h, w, 4)
    lanes = pad.view(np.uint64).reshape(h + 2, w + 2)
    rows = lanes[:-2] + lanes[1:-1]
    rows += lanes[2:]
    sums = rows[:, :-2] + rows[:, 1:-1]
    sums += rows[:, 2:]
    sums += _lut_offsets(h, w)
    dst[...] = _BLUR_LUT.ravel().take(sums.view(np.uint16)).view(np.uint32)


def blur_rect_scalar(src: np.ndarray, dst: np.ndarray, x: int, y: int, w: int, h: int) -> None:
    """The student's naive per-pixel loop with boundary conditionals.

    Deliberately scalar Python — the slow, branchy code path whose real
    cost ratio against :func:`blur_rect_vectorized` is measured by the
    Fig. 10 benchmark.
    """
    dim = src.shape[0]
    for i in range(y, y + h):
        for j in range(x, x + w):
            r = g = b = a = 0
            n = 0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    yy = i + di
                    xx = j + dj
                    if 0 <= yy < dim and 0 <= xx < dim:
                        p = int(src[yy, xx])
                        r += p >> 24 & 0xFF
                        g += p >> 16 & 0xFF
                        b += p >> 8 & 0xFF
                        a += p & 0xFF
                        n += 1
            dst[i, j] = (
                (round(r / n) << 24)
                | (round(g / n) << 16)
                | (round(b / n) << 8)
                | round(a / n)
            )


@register_kernel
class BlurKernel(Kernel):
    """Kernel ``blur`` with variants seq / tiled / omp_tiled / omp_tiled_opt."""

    name = "blur"

    def draw(self, ctx) -> None:
        ctx.img.load(synthetic_picture(ctx.dim, ctx.rng))

    # -- tile bodies --------------------------------------------------------------
    def _declare_tile_access(self, ctx, x: int, y: int, w: int, h: int) -> None:
        """Stencil footprint: reads the tile + halo of ``cur``, writes the
        tile of ``next`` (the blur helpers slice raw arrays, so the Img2D
        accessors never see these accesses)."""
        ctx.declare_access(
            reads=[halo_region("cur", x, y, w, h, ctx.dim)],
            writes=[("next", x, y, w, h)],
        )

    def do_tile_basic(self, ctx, tile: Tile) -> float:
        """Branchy path everywhere (students' first tiled version)."""
        x, y, w, h = tile.as_rect()
        self._declare_tile_access(ctx, x, y, w, h)
        blur_rect_vectorized(ctx.img.cur, ctx.img.nxt, x, y, w, h)
        return tile.area * SCALAR_PIXEL_WORK

    def do_tile_opt(self, ctx, tile: Tile) -> float:
        """Branch-free bulk path for inner tiles, branchy for border ones."""
        x, y, w, h = tile.as_rect()
        self._declare_tile_access(ctx, x, y, w, h)
        blur_rect_vectorized(ctx.img.cur, ctx.img.nxt, x, y, w, h)
        is_border = (
            tile.row == 0
            or tile.col == 0
            or tile.row == ctx.grid.rows - 1
            or tile.col == ctx.grid.cols - 1
        )
        return tile.area * (SCALAR_PIXEL_WORK if is_border else VECTOR_PIXEL_WORK)

    def do_tile_scalar(self, ctx, tile: Tile) -> float:
        """Actually scalar Python (used by ``seq`` and the Fig. 10 bench)."""
        x, y, w, h = tile.as_rect()
        self._declare_tile_access(ctx, x, y, w, h)
        blur_rect_scalar(ctx.img.cur, ctx.img.nxt, x, y, w, h)
        return tile.area * SCALAR_PIXEL_WORK

    # -- whole-frame fast path (perf mode) ----------------------------------
    def _frame_blur(self, ctx, tiles) -> bool:
        """One whole-frame blur; True if it covered the request.

        Neighbourhood clipping in :func:`blur_rect_vectorized` is to the
        *image* borders (never to tile borders), so the tiles together
        write exactly the bytes one whole-image call would — and
        :func:`blur_frame` writes those same bytes.
        """
        if len(tiles) != len(ctx.grid):
            return False
        blur_frame(ctx.img.cur, ctx.img.nxt)
        return True

    def compute_frame_basic(self, ctx, tiles) -> np.ndarray | None:
        if not self._frame_blur(ctx, tiles):
            return None
        return tile_works(tiles, SCALAR_PIXEL_WORK)

    def compute_frame_opt(self, ctx, tiles) -> np.ndarray | None:
        if not self._frame_blur(ctx, tiles):
            return None
        last_r, last_c = ctx.grid.rows - 1, ctx.grid.cols - 1
        border = np.fromiter(
            (
                t.row == 0 or t.col == 0 or t.row == last_r or t.col == last_c
                for t in tiles
            ),
            dtype=bool,
            count=len(tiles),
        )
        areas = np.fromiter((t.area for t in tiles), dtype=np.float64, count=len(tiles))
        return areas * np.where(border, SCALAR_PIXEL_WORK, VECTOR_PIXEL_WORK)

    # -- variants -------------------------------------------------------------------
    @variant("seq")
    def compute_seq(self, ctx, nb_iter: int) -> int:
        """Reference: per-pixel scalar loops over the whole image."""
        for _ in ctx.iterations(nb_iter):
            ctx.sequential_for(lambda t: self.do_tile_scalar(ctx, t))
            ctx.swap_images()
        return 0

    @variant("tiled")
    def compute_tiled(self, ctx, nb_iter: int) -> int:
        for _ in ctx.iterations(nb_iter):
            ctx.sequential_for(
                lambda t: self.do_tile_basic(ctx, t), frame=self.compute_frame_basic
            )
            ctx.swap_images()
        return 0

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter: int) -> int:
        """Basic parallel tiled version (bottom trace of Fig. 10)."""
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(ctx.body(self.do_tile_basic), frame=self.compute_frame_basic)
            ctx.run_on_master(ctx.swap_images)
        return 0

    @variant("omp_tiled_opt")
    def compute_omp_tiled_opt(self, ctx, nb_iter: int) -> int:
        """Optimized version: no conditionals in inner tiles (top trace)."""
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(ctx.body(self.do_tile_opt), frame=self.compute_frame_opt)
            ctx.run_on_master(ctx.swap_images)
        return 0

    @variant("ocl")
    def compute_ocl(self, ctx, nb_iter: int) -> int:
        """OpenCL-style execution: uniform branch-free lanes, but the
        whole frame crosses the bus twice per iteration — blur on a GPU
        is *transfer-bound*, the mirror lesson of mandel's compute-bound
        ``ocl`` variant (``ctx.data['transfer_fraction']`` tells which)."""
        from repro.errors import ConfigError
        from repro.gpu.device import DeviceSpec, GpuDevice
        from repro.kernels.api import VECTOR_PIXEL_WORK

        if ctx.dim % ctx.grid.tile_w or ctx.dim % ctx.grid.tile_h:
            raise ConfigError("ocl variant needs tile sizes dividing the image")
        device = GpuDevice(DeviceSpec(num_cus=ctx.nthreads), model=ctx.model)
        lane = np.full((ctx.dim, ctx.dim), VECTOR_PIXEL_WORK)
        nbytes = ctx.dim * ctx.dim * 4
        for _ in ctx.iterations(nb_iter):
            blur_rect_vectorized(ctx.img.cur, ctx.img.nxt, 0, 0, ctx.dim, ctx.dim)
            launch = device.launch(
                lane,
                group_w=ctx.grid.tile_w,
                group_h=ctx.grid.tile_h,
                items=list(ctx.grid),
                start_time=ctx.vclock,
                meta={"iteration": ctx.iteration, "kind": "ocl"},
                transfer_in_bytes=nbytes,
                transfer_out_bytes=nbytes,
            )
            ctx.data["transfer_fraction"] = launch.transfer_fraction
            ctx.bus.counter("gpu_lane_work", launch.total_lane_work)
            ctx.bus.counter("gpu_lockstep_work", launch.total_lockstep_work)
            ctx.vclock = max(launch.makespan, ctx.vclock) + ctx.model.fork_join_overhead
            ctx.bus.publish_region(launch.timeline)
            ctx.swap_images()
        return 0

    # -- MPI: band decomposition with ghost-row exchange ----------------------
    @variant("mpi_omp")
    def compute_mpi_omp(self, ctx, nb_iter: int) -> int:
        """Distributed stencil: each rank owns a row band of the image;
        boundary rows are exchanged with the neighbours before every
        iteration (the ghost-cell pattern students learn in §III-D),
        tiles inside the band run under the OpenMP schedule.
        """
        if ctx.mpi is None:
            raise RuntimeError("variant mpi_omp requires --mpirun (mpi_np > 0)")
        from repro.errors import ConfigError
        from repro.mpi.decomposition import band_of

        mpi = ctx.mpi
        y0, h = band_of(mpi.rank, mpi.size, ctx.dim)
        if y0 % ctx.grid.tile_h or ((y0 + h) % ctx.grid.tile_h and (y0 + h) != ctx.dim):
            raise ConfigError(
                "blur/mpi_omp requires rank bands aligned to tile rows "
                f"(dim={ctx.dim}, np={mpi.size}, tile_h={ctx.grid.tile_h})"
            )
        tiles = [t for t in ctx.grid if y0 <= t.y < y0 + h]
        comm = mpi.comm
        up, down = mpi.rank - 1, mpi.rank + 1
        for _ in ctx.iterations(nb_iter):
            # ghost-row exchange: receive the neighbour's boundary row of
            # the *current* image into our halo row
            if up >= 0:
                ctx.img.cur[y0 - 1] = comm.sendrecv(
                    ctx.img.cur[y0].copy(), dest=up, source=up
                )
            if down < mpi.size:
                ctx.img.cur[y0 + h] = comm.sendrecv(
                    ctx.img.cur[y0 + h - 1].copy(), dest=down, source=down
                )
            ctx.parallel_for(ctx.body(self.do_tile_opt), tiles)
            ctx.run_on_master(ctx.swap_images)
        # compose the final picture on the master for display/result
        gathered = comm.gather((y0, ctx.img.cur[y0 : y0 + h].copy()), root=0)
        if mpi.rank == 0 and gathered:
            for gy0, band in gathered:
                ctx.img.cur[gy0 : gy0 + band.shape[0]] = band
        return 0
