"""Differential tests for the rank frames of the ``mpi_*`` variants.

Each rank of ``life/mpi_omp`` and ``blur/mpi_omp`` steps its row band,
and each rank of ``heat/mpi_2d`` its block, in one vectorized call when
the fast path is active.  Every case runs twice, fast and with
``fastpath="off"`` (the per-tile bodies), traced and monitored on every
rank, and the two runs must agree exactly: image, completed iterations,
virtual clock, each rank's kernel state, monitor records and ``.evt``
bytes.  The frames must decline under footprint collection and under a
non-grid domain.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import run
from repro.mpi.substrate import shutdown_mpi_pools
from repro.trace.format import save_trace
from tests.conftest import make_config

#: (kernel, variant, dataset): the three variants whose ranks take frames
VARIANTS = [
    ("life", "mpi_omp", "random"),
    ("life", "mpi_omp", "diag"),
    ("life", "mpi_omp", "gun"),
    ("life", "mpi_omp", "blinkers"),
    ("blur", "mpi_omp", None),
    ("heat", "mpi_2d", "corners"),
    ("heat", "mpi_2d", "bar"),
]

#: 96 rows split into bands of 96, 48, 32 and 24 rows, all multiples of
#: the tile height, and 2x2 heat blocks of 48 columns at -np 4
SHAPE = dict(dim=96, tile_w=16, tile_h=8)

CASES = [
    pytest.param(k, v, a, n, sub, id=f"{k}-{v}-{a}-np{n}-{sub}")
    for (k, v, a), n, sub in itertools.product(VARIANTS, [1, 2, 3, 4], ["inproc", "procs"])
]


@pytest.fixture
def mpi_backend(request):
    """The case's substrate; a procs case stops its rank team after."""
    yield request.param
    if request.param == "procs":
        shutdown_mpi_pools()


def config(kernel, variant, arg, np_, substrate, **over):
    return make_config(kernel=kernel, variant=variant, arg=arg, mpi_np=np_,
                       mpi_backend=substrate, iterations=4, seed=3, **SHAPE, **over)


def observed_pair(cfg):
    """The fast run and its ``fastpath="off"`` twin, every rank traced
    and monitored."""
    cfg = cfg.with_(trace=True, monitoring=True, debug="M")
    return run(cfg), run(cfg.with_(fastpath="off"))


def assert_same_observation(fast, off, tmp_path: Path) -> None:
    assert np.array_equal(fast.image, off.image)
    assert fast.completed_iterations == off.completed_iterations
    assert fast.virtual_time == off.virtual_time  # exact, not approx
    assert len(fast.rank_results) == len(off.rank_results)
    for rank, (a, b) in enumerate(zip(fast.rank_results, off.rank_results)):
        assert a.virtual_time == b.virtual_time
        # kernel state too: heat's max delta shows only at convergence
        assert a.context.data.keys() == b.context.data.keys()
        for key, got in a.context.data.items():
            if isinstance(got, np.ndarray):  # heat's free cells are NaN sources
                nan = got.dtype.kind == "f"
                assert np.array_equal(got, b.context.data[key], equal_nan=nan), (rank, key)
            else:
                assert got == b.context.data[key], (rank, key)
        got = save_trace(a.trace, tmp_path / f"fast{rank}.evt").read_bytes()
        assert got == save_trace(b.trace, tmp_path / f"off{rank}.evt").read_bytes()
        assert len(a.monitor.records) == len(b.monitor.records)
        for x, y in zip(a.monitor.records, b.monitor.records):
            for f in dataclasses.fields(x):
                got, want = getattr(x, f.name), getattr(y, f.name)
                if isinstance(got, np.ndarray):
                    assert np.array_equal(got, want), (rank, f.name)
                else:
                    assert got == want, (rank, f.name)


@pytest.mark.parametrize("kernel,variant,arg,np_,mpi_backend", CASES,
                         indirect=["mpi_backend"])
def test_rank_frames_equal_per_tile_bodies(kernel, variant, arg, np_, mpi_backend,
                                           tmp_path):
    fast, off = observed_pair(config(kernel, variant, arg, np_, mpi_backend))
    assert fast.fastpath_regions > 0
    assert off.fastpath_regions == 0
    assert_same_observation(fast, off, tmp_path)


@pytest.mark.parametrize("fastpath", ["auto", "off"])
def test_lazy_bands_see_diagonal_neighbours_across_ranks(fastpath):
    # 2x2 tiles: a cell changing in the corner of the neighbour rank's
    # boundary tile must dirty the diagonal tile across the boundary,
    # or the per-tile path skips a tile that changes (the band frame
    # recomputes every tile and never depended on it)
    kw = dict(kernel="life", dim=32, tile_w=2, tile_h=2, iterations=5, arg="random",
              seed=36, nthreads=1)
    seq = run(make_config(variant="seq", **kw))
    mpi = run(make_config(variant="mpi_omp", mpi_np=2, fastpath=fastpath, **kw))
    assert np.array_equal(mpi.image, seq.image)


@pytest.mark.parametrize("mpi_backend", ["inproc", "procs"], indirect=True)
def test_world_total_counts_every_rank(mpi_backend):
    # heat converges late: each of 4 ranks takes one frame per iteration
    res = run(config("heat", "mpi_2d", "corners", 4, mpi_backend))
    per_rank = [r.fastpath_regions for r in res.rank_results]
    assert per_rank[1:] == [res.completed_iterations] * 3
    assert res.fastpath_regions == res.completed_iterations * 4


@pytest.mark.parametrize("kernel,variant,arg", VARIANTS)
def test_frames_decline_under_footprints(kernel, variant, arg):
    res = run(config(kernel, variant, arg, 2, "inproc", footprints=True))
    assert res.fastpath_regions == 0


@pytest.mark.parametrize("kernel,variant,arg", VARIANTS)
def test_frames_decline_on_a_quadtree(kernel, variant, arg):
    cfg = config(kernel, variant, arg, 2, "inproc", domain="quadtree")
    fast, off = run(cfg), run(cfg.with_(fastpath="off"))
    assert fast.fastpath_regions == 0
    assert np.array_equal(fast.image, off.image)
    assert fast.virtual_time == off.virtual_time

