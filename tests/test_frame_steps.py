"""The whole-frame steps of heat, sandpile and life, and life's band
step, against their per-tile reference bodies.

Each ``*_step_frame`` must reproduce ``*_step_rect(..., 0, 0, dim, dim)``
bit for bit (the next array and the returned delta or changed count)
while reusing the same scratch buffers step after step, so stale
scratch contents or a halo a step overwrote would show.  The run-level
tests check what the scratch must not change: a kernel instance reused
across runs, and the ``ctx.data`` keys a run leaves behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.engine import run
from repro.core.kernel import get_kernel
from repro.kernels.api import FrameScratch
from repro.kernels.heat import jacobi_step_frame, jacobi_step_rect
from repro.kernels.life import life_step_band, life_step_frame, life_step_rect
from repro.kernels.sandpile import sandpile_step_frame, sandpile_step_rect
from tests.conftest import make_config

DIMS = [1, 2, 33, 47, 100]
STEPS = 30


def initial_data(kernel: str, dim: int, arg: str) -> dict:
    """``ctx.data`` right after the kernel's ``init`` at this size."""
    k = get_kernel(kernel)
    cfg = make_config(kernel=kernel, variant="seq", dim=dim, tile_w=dim,
                      tile_h=dim, arg=arg)
    ctx = ExecutionContext(k.run_config(cfg))
    k.init(ctx)
    return ctx.data


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("arg", ["corners", "bar"])
def test_heat_frame_step_matches_rect(dim, arg):
    data = initial_data("heat", dim, arg)
    sources = data["sources"]
    fixed = np.flatnonzero(~np.isnan(sources))
    ref, ref_next = data["temp"].copy(), data["next"].copy()
    got, got_next = data["temp"].copy(), data["next"].copy()
    pad = FrameScratch().get("pad", (dim + 2, dim + 2), np.float64)
    for _ in range(STEPS):
        want = jacobi_step_rect(ref, ref_next, sources, 0, 0, dim, dim)
        delta = jacobi_step_frame(got, got_next, fixed, sources.ravel()[fixed], pad)
        assert delta == want
        assert np.array_equal(got_next, ref_next)
        ref, ref_next = ref_next, ref
        got, got_next = got_next, got


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("arg", ["uniform5", "center"])
def test_sandpile_frame_step_matches_rect(dim, arg):
    data = initial_data("sandpile", dim, arg)
    ref, ref_next = data["grains"].copy(), data["next"].copy()
    got, got_next = data["grains"].copy(), data["next"].copy()
    scratch = FrameScratch()
    quarters = scratch.get("quarters", (dim + 2, dim + 2), np.int64)
    mask = scratch.get("mask", (dim, dim), np.bool_)
    for _ in range(STEPS):
        want = sandpile_step_rect(ref, ref_next, 0, 0, dim, dim)
        assert sandpile_step_frame(got, got_next, quarters, mask) == want
        assert np.array_equal(got_next, ref_next)
        ref, ref_next = ref_next, ref
        got, got_next = got_next, got


def test_sandpile_shift_and_mask_equal_floor_div_and_mod():
    grains = np.arange(-41, 42, dtype=np.int64)
    assert np.array_equal(grains >> 2, grains // 4)
    assert np.array_equal(grains & 3, grains % 4)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("arg", ["random", "diag", "gun", "blinkers"])
def test_life_frame_step_matches_rect(dim, arg):
    data = initial_data("life", dim, arg)
    ref, ref_next = data["cells"].copy(), data["next"].copy()
    got, got_next = data["cells"].copy(), data["next"].copy()
    scratch = FrameScratch()
    pad = scratch.get("pad", (dim + 2, dim + 2), np.uint8)
    rows = scratch.get("rows", (dim + 2, dim), np.uint8)
    for _ in range(STEPS):
        want = life_step_rect(ref, ref_next, 0, 0, dim, dim)
        life_step_frame(got, got_next, pad, rows)
        assert np.array_equal(got_next, ref_next)
        assert np.count_nonzero(got_next != got) == want
        ref, ref_next = ref_next, ref
        got, got_next = got_next, got


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("where", ["top", "middle", "bottom", "all"])
def test_life_band_step_matches_rect(dim, where):
    """A rank's band step over the rows ``[y0, y0 + h)`` of the world,
    given the rows around them as ghost rows (zero past the image),
    writes the rect body's rows and leaves its own ghost rows alone."""
    y0, h = {"top": (0, -(-dim // 3)), "middle": (dim // 3, -(-dim // 3)),
             "bottom": (dim - 1, 1), "all": (0, dim)}[where]
    h = min(h, dim - y0)
    world = initial_data("life", dim, "random")["cells"].copy()
    world_next = np.zeros_like(world)
    scratch = FrameScratch()
    pad = scratch.get("pad", (h + 2, dim + 2), np.uint8)
    rows = scratch.get("rows", (h + 2, dim), np.uint8)
    band = np.zeros((h + 2, dim), dtype=np.uint8)
    got = np.full_like(band, 7)
    lo, hi = max(y0 - 1, 0), min(y0 + h + 1, dim)
    for _ in range(STEPS):
        band[lo - y0 + 1 : hi - y0 + 1] = world[lo:hi]
        life_step_rect(world, world_next, 0, 0, dim, dim)
        life_step_band(band, got, pad, rows)
        assert np.array_equal(got[1:-1], world_next[y0 : y0 + h])
        assert (got[[0, -1]] == 7).all()
        world, world_next = world_next, world


@pytest.mark.parametrize("dim", [1, 33, 47])
def test_heat_refresh_img_matches_the_channel_formula(dim):
    """``refresh_img`` writes through scratch buffers; two calls on one
    instance, with temperatures below 0 and above 1, give the pixels of
    the plain uint32 channel formula."""
    k = get_kernel("heat")
    ctx = ExecutionContext(k.run_config(make_config(
        kernel="heat", variant="seq", dim=dim, tile_w=dim, tile_h=dim)))
    k.init(ctx)
    rng = np.random.default_rng(dim)
    for _ in range(2):
        temp = rng.uniform(-0.5, 1.5, (dim, dim))
        temp.flat[:3] = [-0.0, 1.0, 0.5][: temp.size]
        ctx.data["temp"] = temp
        k.refresh_img(ctx)
        t = np.clip(temp, 0.0, 1.0)
        r = (255 * t).astype(np.uint32)
        b = (255 * (1.0 - t)).astype(np.uint32)
        assert np.array_equal(ctx.img.cur, (r << 24) | (b << 8) | np.uint32(0xFF))


def test_frame_scratch_reuses_and_resizes():
    scratch = FrameScratch()
    pad = scratch.get("pad", (4, 4), np.float64)
    assert scratch.get("pad", (4, 4), np.float64) is pad
    assert scratch.get("pad", (6, 6), np.float64).shape == (6, 6)
    assert scratch.get("pad", (6, 6), np.uint8).dtype == np.uint8


#: (kernel, variant, the state array, the datasets it is reused over)
RUNS = [
    ("heat", "omp_tiled", "temp", ("corners", "bar")),
    ("heat", "seq", "temp", ("bar", "corners")),
    ("sandpile", "omp_tiled", "grains", ("uniform5", "center")),
    ("life", "omp_tiled", "cells", ("random", "gun")),
    ("life", "lazy", "cells", ("diag", "blinkers")),
]


@pytest.mark.parametrize("kernel,variant,state,args", RUNS)
def test_reused_instance_matches_fresh_runs(kernel, variant, state, args):
    """One instance across two sizes and two datasets: its scratch is
    re-sized and heat's source cells are taken again from each run."""
    reused = get_kernel(kernel)
    for dim in (48, 32):
        for arg in args:
            cfg = make_config(kernel=kernel, variant=variant, dim=dim, tile_w=16,
                              tile_h=16, iterations=6, arg=arg)
            got = run(cfg, kernel=reused)
            want = run(cfg)
            assert got.fastpath_regions > 0
            assert got.virtual_time == want.virtual_time
            assert got.completed_iterations == want.completed_iterations
            assert np.array_equal(got.image, want.image)
            assert np.array_equal(got.context.data[state], want.context.data[state])


@pytest.mark.parametrize("kernel,variant,state,args", RUNS)
def test_fast_run_leaves_the_reference_data_keys(kernel, variant, state, args):
    cfg = make_config(kernel=kernel, variant=variant, dim=40, tile_w=8, tile_h=8,
                      iterations=3, arg=args[0])
    fast = run(cfg)
    ref = run(cfg.with_(fastpath="off"))
    assert fast.fastpath_regions > 0
    assert sorted(fast.context.data) == sorted(ref.context.data)
