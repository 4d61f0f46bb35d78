"""Differential tests for the frames of the non-grid domains.

``lu_wavefront`` factorizes its whole wavefront domain one elimination
step at a time (panel solves over whole panels), and sandpile's
``omp_quadtree`` steps the image in one call over the quadtree's tiles.
Every case runs twice, fast and with ``fastpath="off"`` (the per-task
bodies), traced and monitored, and the two runs must agree exactly:
image, kernel state, virtual clock, monitor records and ``.evt``
bytes (``tests/test_fastpath_diff.py`` compares their region logs).
Both frames must decline under footprint collection and on a domain
they do not cover.  The domains themselves are built once per
geometry and shared, so the last tests hold them read-only.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.context import ExecutionContext
from repro.core.domains import QuadtreeDomain, WavefrontDomain, domain_of, make_domain
from repro.core.engine import run
from repro.core.kernel import get_kernel
from repro.kernels.lu_wavefront import block_work
from repro.trace.format import save_trace
from tests.conftest import make_config

#: (dim, block): edge blocks clipped to 4 and 8 pixels, or none at all,
#: and one block covering the whole matrix
LU_SHAPES = [(100, 16), (40, 16), (96, 32), (48, 48)]

LU_CASES = [
    pytest.param(dim, block, variant, iters, schedule, ncpus,
                 id=f"{dim}-{block}-{variant}-i{iters}-{schedule}-t{ncpus}")
    for (dim, block), (variant, iters, schedule, ncpus) in itertools.product(
        LU_SHAPES,
        [("seq", 1, "static", 1),
         ("omp_tiled", 1, "static", 3),
         ("omp_tiled", 2, "dynamic", 4),
         ("omp_tiled", 3, "guided", 2),
         ("omp_tiled", 2, "nonmonotonic:dynamic", 3)],
    )
]

QUADTREE_CASES = [
    pytest.param(dim, arg, iters, schedule, ncpus,
                 id=f"{dim}-{arg}-i{iters}-{schedule}-t{ncpus}")
    for dim, (arg, iters, schedule, ncpus) in itertools.product(
        [64, 72],
        [("uniform5", 1, "static", 2),
         ("uniform5", 3, "dynamic", 4),
         ("center", 2, "guided", 3),
         ("center", 3, "nonmonotonic:dynamic", 4)],
    )
]


def lu_config(dim, block, **over):
    return make_config(kernel="lu_wavefront", domain="wavefront", dim=dim, tile_w=block,
                       tile_h=block, seed=7, **over)


def quadtree_config(dim, arg, **over):
    return make_config(kernel="sandpile", variant="omp_quadtree", domain="quadtree",
                       dim=dim, tile_w=16, tile_h=16, arg=arg, **over)


def observed_pair(cfg):
    """The fast run and its ``fastpath="off"`` twin, traced and monitored."""
    cfg = cfg.with_(trace=True, monitoring=True)
    return run(cfg), run(cfg.with_(fastpath="off"))


def assert_same_observation(fast, off, tmp_path: Path) -> None:
    assert fast.fastpath_regions > 0
    assert off.fastpath_regions == 0
    assert np.array_equal(fast.image, off.image)
    assert fast.completed_iterations == off.completed_iterations
    assert fast.virtual_time == off.virtual_time  # exact, not approx
    assert fast.context.data.keys() == off.context.data.keys()
    for key, got in fast.context.data.items():
        if isinstance(got, np.ndarray):
            assert got.tobytes() == off.context.data[key].tobytes(), key
        else:
            assert got == off.context.data[key], key
    got = save_trace(fast.trace, tmp_path / "fast.evt").read_bytes()
    assert got == save_trace(off.trace, tmp_path / "off.evt").read_bytes()
    assert len(fast.monitor.records) == len(off.monitor.records)
    for x, y in zip(fast.monitor.records, off.monitor.records):
        for f in dataclasses.fields(x):
            got, want = getattr(x, f.name), getattr(y, f.name)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name


# --------------------------------------------------------------------------
# lu_wavefront: the factorization by panels
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dim,block,variant,iters,schedule,ncpus", LU_CASES)
def test_lu_frame_equals_per_block_bodies(dim, block, variant, iters, schedule, ncpus,
                                          tmp_path):
    cfg = lu_config(dim, block, variant=variant, iterations=iters, schedule=schedule,
                    nthreads=ncpus)
    fast, off = observed_pair(cfg)
    assert fast.fastpath_regions == iters
    assert_same_observation(fast, off, tmp_path)


def test_block_works_count_flops():
    # 20 = 8 + 8 + 4: clipped blocks tell h from w in every formula
    dom = WavefrontDomain(20, 8)
    works = [block_work(t, dom.block_rect(t.step, t.step)[2]) for t in dom]
    assert [(t.op, t.row, t.col) for t in dom][:9] == [
        ("diag", 0, 0), ("row", 0, 1), ("row", 0, 2), ("col", 1, 0), ("col", 2, 0),
        ("trail", 1, 1), ("trail", 1, 2), ("trail", 2, 1), ("trail", 2, 2),
    ]
    assert works == [512 / 3, 512, 256, 512, 256, 1024, 512, 512, 256,
                     512 / 3, 256, 256, 256, 64 / 3]


@pytest.mark.parametrize("cfg", [lu_config(40, 16), quadtree_config(64, "center")],
                         ids=["lu", "quadtree"])
def test_frames_decline_under_footprints(cfg):
    assert run(cfg.with_(footprints=True)).fastpath_regions == 0


def test_lu_frame_declines_other_items():
    kernel = get_kernel("lu_wavefront")
    ctx = ExecutionContext(lu_config(40, 16))
    kernel.init(ctx)
    before = ctx.data["mat"].copy()
    items = list(ctx.domain)
    assert kernel.compute_frame(ctx, items[:-1]) is None
    assert kernel.compute_frame(ctx, items[::-1]) is None
    # a foreign domain: the same kernel state on a quadtree context
    ctx.domain = make_domain(RunConfig(kernel="mandel", variant="omp_tiled", dim=40,
                                       tile_w=16, tile_h=16, domain="quadtree"))
    assert kernel.compute_frame(ctx, list(ctx.domain)) is None
    assert np.array_equal(ctx.data["mat"], before)  # a decline writes nothing


# --------------------------------------------------------------------------
# sandpile omp_quadtree: one step over the adaptive tiling
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dim,arg,iters,schedule,ncpus", QUADTREE_CASES)
def test_quadtree_frame_equals_per_tile_bodies(dim, arg, iters, schedule, ncpus,
                                               tmp_path):
    cfg = quadtree_config(dim, arg, iterations=iters, schedule=schedule, nthreads=ncpus)
    fast, off = observed_pair(cfg)
    assert isinstance(fast.context.domain, QuadtreeDomain)
    assert fast.fastpath_regions == fast.completed_iterations
    assert_same_observation(fast, off, tmp_path)


def test_sandpile_frame_declines_on_a_wavefront():
    cfg = make_config(kernel="sandpile", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
                      domain="wavefront", iterations=2)
    fast, off = run(cfg), run(cfg.with_(fastpath="off"))
    assert fast.fastpath_regions == 0
    assert np.array_equal(fast.image, off.image)
    assert fast.virtual_time == off.virtual_time


# --------------------------------------------------------------------------
# one domain per geometry, shared read-only
# --------------------------------------------------------------------------


class TestDomainCache:
    def test_same_geometry_same_object(self):
        a = lu_config(100, 16)
        assert make_domain(a) is make_domain(a.with_(seed=1, nthreads=2))
        q = quadtree_config(64, "center")
        assert make_domain(q) is make_domain(q.with_(arg="uniform5"))
        assert isinstance(make_domain(a), WavefrontDomain)
        assert isinstance(make_domain(q), QuadtreeDomain)
        assert domain_of("grid", 64, 64, 1, 16, 16) is domain_of("grid", 64, 64, 1, 16, 16)

    def test_other_geometry_other_object(self):
        base = make_domain(lu_config(100, 16))
        assert make_domain(lu_config(100, 20)) is not base
        assert make_domain(lu_config(96, 16)) is not base
        grid = domain_of("grid", 64, 64, 1, 16, 16)
        assert domain_of("grid", 64, 64, 1, 16, 8) is not grid
        assert domain_of("grid", 64, 32, 1, 16, 16) is not grid
        assert domain_of("quadtree", 64, 64, 1, 16, 16) is not grid

    def test_contexts_share_the_plane_grid(self):
        lu = ExecutionContext(lu_config(64, 16))
        assert lu.grid is domain_of("grid", 64, 64, 1, 16, 16)
        grid = ExecutionContext(make_config(dim=64, tile_w=16, tile_h=16))
        assert grid.grid is grid.domain is lu.grid

    @pytest.mark.parametrize("fastpath", ["auto", "off"])
    def test_runs_leave_the_shared_domain_as_built(self, fastpath):
        cfg = lu_config(40, 16, trace=True, monitoring=True, fastpath=fastpath)
        dom = make_domain(cfg)
        items, deps = list(dom), copy.deepcopy(dom.dependencies())
        run(cfg)
        run(quadtree_config(64, "center", trace=True, monitoring=True, fastpath=fastpath))
        assert list(dom) == items
        assert dom.dependencies() == deps
        assert deps == WavefrontDomain(40, 16).dependencies()
