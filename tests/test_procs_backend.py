"""Tests for ``backend="procs"``: the persistent shared-memory worker pool.

Bit-identical images across ``sim`` / ``threads`` / ``procs`` on
generated configs are held by ``tests/test_contract.py``; this file
keeps pinned procs cells: sim == procs per code path, pinned images,
identical per-tile visit multisets (via traces), wall-clock traces, a
SIGKILL'd worker surfacing a clean :class:`ExecutionError` within a
bounded time, and zero leaked ``/dev/shm`` segments after interrupted
runs.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BACKENDS, RunConfig
from repro.core.context import ExecutionContext
from repro.core.engine import run
from repro.core.kernel import get_kernel, load_kernel_module
from repro.errors import ConfigError, ExecutionError
from repro.omp import procs as procs_mod
from repro.sched.policies import NonMonotonicDynamic
from tests.conftest import make_config

FIXTURES = Path(__file__).parent / "fixtures"

NW = 2  # one pool of this size is shared by (almost) every test below


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_at_end():
    yield
    procs_mod.shutdown_pools()


def run_backend(backend: str, **kw):
    kw.setdefault("nthreads", NW)
    return run(make_config(backend=backend, **kw))


# --------------------------------------------------------------------------
# Backend equivalence: images, early-stop, reduce results
# --------------------------------------------------------------------------

# Compact default-tier matrix: each row exercises a distinct procs code
# path (tile grid, pickled row items, lazy todo lists, parallel_reduce,
# scalar write-back, work-stealing deques).
CASES = [
    ("mandel", "omp_tiled", "dynamic,2"),
    ("mandel", "omp", "static"),  # row items travel pickled, not as tile indices
    ("life", "omp_tiled", "guided"),
    ("heat", "omp_tiled", "static,2"),  # parallel_reduce path
    ("sandpile", "omp_tiled", "dynamic"),  # scalar (flag) write-back
    ("invert", "omp_tiled", "nonmonotonic:dynamic,2"),  # steal mode
]


@pytest.mark.parametrize("kernel,variant,schedule", CASES)
def test_procs_matches_sim(kernel, variant, schedule):
    res = {
        b: run_backend(b, kernel=kernel, variant=variant, schedule=schedule)
        for b in ("sim", "procs")
    }
    assert np.array_equal(res["sim"].image, res["procs"].image)
    assert res["sim"].early_stop == res["procs"].early_stop
    assert res["sim"].completed_iterations == res["procs"].completed_iterations


# sha256 prefixes of the final images, pinned from the implementation
# that built ``ctx.rng`` eagerly: kernels drawing a synthetic picture or
# a random matrix from it must keep their pixels on both backends
DRAWN_DIGESTS = {
    "blur": "d1404330c096829a",
    "scrollup": "7c2041de88248b26",
    "invert": "c3bc6949ced0c773",
    "lu_wavefront": "56a54fac52c5ab25",
}


@pytest.mark.parametrize("backend", ["sim", "procs"])
@pytest.mark.parametrize("kernel", sorted(DRAWN_DIGESTS))
def test_rng_drawn_images_unchanged(kernel, backend):
    image = run_backend(backend, kernel=kernel, variant="omp_tiled").image
    assert hashlib.sha256(image.tobytes()).hexdigest()[:16] == DRAWN_DIGESTS[kernel]


def test_steal_half_policy_object():
    """``steal_half`` has no spec spelling — pass the policy object."""
    images = {}
    for backend in ("sim", "procs"):
        cfg = make_config(
            kernel="invert", backend=backend, nthreads=NW, dim=32, tile_w=8, tile_h=8
        )
        kern = get_kernel("invert")
        ctx = ExecutionContext(cfg)
        try:
            kern.init(ctx)
            kern.draw(ctx)
            res = ctx.parallel_for(
                ctx.body(kern.do_tile),
                schedule=NonMonotonicDynamic(2, steal_half=True),
            )
            assert len(res.timeline) == len(ctx.grid)
            images[backend] = ctx.img.copy_cur()
        finally:
            ctx.close()
    assert np.array_equal(images["sim"], images["procs"])


# --------------------------------------------------------------------------
# Traces: per-tile visit multisets and wall-clock timestamps
# --------------------------------------------------------------------------


def _tile_multiset(trace):
    return sorted(
        (e.iteration, e.x, e.y, e.w, e.h) for e in trace if e.kind == "tile"
    )


def test_visit_multisets_match_sim():
    res = {
        b: run_backend(b, kernel="mandel", schedule="dynamic,2", trace=True)
        for b in ("sim", "procs")
    }
    assert _tile_multiset(res["procs"].trace) == _tile_multiset(res["sim"].trace)


def test_procs_trace_is_wall_clock():
    res = run_backend("procs", kernel="mandel", trace=True)
    assert res.trace.meta.extra == {"clock": "wall", "backend": "procs"}
    events = [e for e in res.trace if e.kind == "tile"]
    assert len(events) == 16 * 2  # 16 tiles x 2 iterations
    assert {e.cpu for e in events} <= set(range(NW))
    for e in events:
        assert 0.0 <= e.start <= e.end
    # wall-clock events from one region overlap across cpus instead of
    # being serialized -- iteration 1 must finish in real (sub-second
    # scale) time, not the virtual-cost scale the simulator would report
    it1 = [e for e in events if e.iteration == 1]
    assert max(e.end for e in it1) < 60.0


def test_sim_trace_meta_untouched():
    # golden .evt fixtures compare byte-for-byte: the wall-clock
    # annotation must never leak into simulator traces
    res = run_backend("sim", kernel="mandel", trace=True)
    assert res.trace.meta.extra == {}


# --------------------------------------------------------------------------
# Worker death mid-region (reuse and respawn between runs are held for
# both pool kinds in tests/test_worker_pool.py)
# --------------------------------------------------------------------------


def test_sigkill_mid_region_raises_clean_execution_error():
    load_kernel_module(str(FIXTURES / "slowtiles_kernel.py"))
    # warm the pool so the victim pid is known before the region starts
    run_backend("procs", kernel="invert", iterations=1)
    pool = procs_mod.get_pool(NW)
    old_pids = pool.worker_pids()
    victim = old_pids[0]

    killer = threading.Timer(0.5, os.kill, (victim, signal.SIGKILL))
    killer.start()
    cfg = RunConfig(
        kernel="slowtiles",
        variant="omp_tiled",
        dim=32,
        tile_w=8,
        tile_h=8,
        iterations=1,
        nthreads=NW,
        schedule="dynamic",
        backend="procs",
        seed=42,
    )
    t0 = time.monotonic()
    try:
        with pytest.raises(ExecutionError, match="died"):
            run(cfg)
    finally:
        killer.cancel()
    assert time.monotonic() - t0 < 30.0  # bounded: no hang on the dead pipe

    # the broken pool was torn down; the next run gets a fresh one
    res = run_backend("procs", kernel="invert", iterations=1)
    assert res.completed_iterations == 1
    assert procs_mod.get_pool(NW).worker_pids() != old_pids


# --------------------------------------------------------------------------
# Shared-memory lifecycle
# --------------------------------------------------------------------------


def _my_arena_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    prefix = f"ezpap_arena_{os.getpid()}_"
    return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]


def test_cancelled_run_leaks_no_shared_memory():
    def cancel(ctx, iteration):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run(make_config(backend="procs", nthreads=NW, iterations=5), frame_hook=cancel)
    assert procs_mod.live_arena_blocks() == []
    assert _my_arena_segments() == []


def test_completed_run_releases_arena_but_image_stays_readable():
    res = run_backend("procs", kernel="invert")
    assert procs_mod.live_arena_blocks() == []
    assert _my_arena_segments() == []
    # handed-out views survive the unlink (mapping dies with the views)
    assert res.image.sum() == res.context.img.copy_cur().sum()
    assert int(res.context.img.cur[0, 0]) == int(res.image[0, 0])


def test_context_close_is_idempotent():
    ctx = ExecutionContext(make_config(backend="procs", nthreads=NW))
    ctx.close()
    ctx.close()
    assert procs_mod.live_arena_blocks() == []


# --------------------------------------------------------------------------
# Input validation
# --------------------------------------------------------------------------


def test_closure_body_rejected_with_helpful_message():
    ctx = ExecutionContext(make_config(backend="procs", nthreads=NW))
    try:
        with pytest.raises(ExecutionError, match=r"ctx\.body"):
            ctx.parallel_for(lambda t: 1.0)
    finally:
        ctx.close()


def test_body_requires_registered_kernel_method():
    ctx = ExecutionContext(make_config(backend="procs", nthreads=NW))
    try:
        with pytest.raises(ExecutionError, match="bound method"):
            ctx.body(print)
    finally:
        ctx.close()


def test_unknown_backend_error_enumerates_backends():
    with pytest.raises(ConfigError) as exc:
        make_config(backend="cuda")
    for name in BACKENDS:
        assert name in str(exc.value)


def test_procs_trace_records_every_tile():
    """Every tile a worker runs reaches the trace, and the trace meta
    carries no loss annotation."""
    res = run_backend("procs", trace=True)
    assert "dropped_events" not in res.trace.meta.extra
    assert len([e for e in res.trace if e.kind == "tile"]) == 16 * 2


def test_procs_refuses_mpi():
    with pytest.raises(ConfigError, match="mpirun"):
        make_config(backend="procs", mpi_np=2)


def test_procs_accepts_footprints():
    """Worker footprints flow back in the workers' replies: every tile
    is traced with non-empty reads/writes."""
    res = run_backend(
        "procs", kernel="blur", variant="omp_tiled",
        trace=True, footprints=True, iterations=1,
    )
    tiles = [e for e in res.trace if e.kind == "tile"]
    assert len(tiles) == 16 and all(e.writes for e in tiles)
    # same footprints as the sim backend records for the same config
    ref = run_backend(
        "sim", kernel="blur", variant="omp_tiled",
        trace=True, footprints=True, iterations=1,
    )

    def fp_multiset(trace):
        return sorted(
            (e.x, e.y, tuple(sorted(e.reads)), tuple(sorted(e.writes)))
            for e in trace
            if e.kind == "tile"
        )

    assert fp_multiset(res.trace) == fp_multiset(ref.trace)
