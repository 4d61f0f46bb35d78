"""Differential harness for the perf-mode whole-frame fast path.

Every case runs the same configuration twice — fast path enabled
(``fastpath="auto"``, the default) and disabled (``fastpath="off"``,
forcing the per-tile reference implementation) — and asserts the two
runs are **bit-identical** in every observable: final image, virtual
clock, iteration counts, early-stop detection and kernel state arrays.
Exact ``==`` on floats is deliberate; the fast path's closed-form
makespans and batched kernels are designed to reproduce the reference
arithmetic bit for bit, and approximate comparisons would silently
erode that contract.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.engine import run
from repro.kernels.blur import blur_frame, blur_rect_vectorized
from tests.conftest import make_config

SCHEDULES = ["static", "static,3", "dynamic", "dynamic,2", "guided",
             "nonmonotonic:dynamic"]

#: kernel/variant cells of the differential matrix; state_keys name the
#: ctx.data arrays that must also match bitwise after the run
CASES = [
    ("mandel", "seq", {}, []),
    ("mandel", "tiled", {}, []),
    ("mandel", "omp", {}, []),
    ("mandel", "omp_tiled", {}, []),
    ("mandel", "omp_tiled", {"arg": "julia"}, []),
    ("blur", "omp_tiled", {}, []),
    ("blur", "omp_tiled_opt", {}, []),
    ("life", "seq", {"arg": "random"}, ["cells"]),
    ("life", "omp_tiled", {"arg": "random"}, ["cells"]),
    ("life", "lazy", {"arg": "diag"}, ["cells"]),
    ("heat", "seq", {}, ["temp"]),
    ("heat", "omp_tiled", {}, ["temp"]),
    ("sandpile", "seq", {}, ["grains"]),
    ("sandpile", "omp_tiled", {}, ["grains"]),
]

CASE_IDS = [f"{k}-{v}" + (f"-{e['arg']}" if "arg" in e else "")
            for k, v, e, _ in CASES]


def run_pair(**cfg):
    fast = run(make_config(**cfg))
    ref = run(make_config(fastpath="off", **cfg))
    return fast, ref


def assert_identical(fast, ref, state_keys=()):
    assert fast.virtual_time == ref.virtual_time  # exact, not approx
    assert np.array_equal(fast.image, ref.image)
    assert fast.completed_iterations == ref.completed_iterations
    assert fast.early_stop == ref.early_stop
    assert fast.counters == ref.counters
    for key in state_keys:
        assert np.array_equal(fast.context.data[key], ref.context.data[key]), key


class TestDifferentialMatrix:
    @pytest.mark.parametrize("kernel,variant,extra,state_keys", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_fast_equals_reference(self, kernel, variant, extra, state_keys, schedule):
        fast, ref = run_pair(kernel=kernel, variant=variant, schedule=schedule,
                             iterations=3, **extra)
        assert fast.fastpath_regions > 0
        assert ref.fastpath_regions == 0
        assert_identical(fast, ref, state_keys)

    @pytest.mark.parametrize("ncpus", [1, 3, 4])
    @pytest.mark.parametrize("kernel,variant", [
        ("mandel", "omp_tiled"), ("heat", "omp_tiled"), ("life", "omp_tiled"),
    ])
    def test_team_sizes(self, kernel, variant, ncpus):
        extra = {"arg": "random"} if kernel == "life" else {}
        fast, ref = run_pair(kernel=kernel, variant=variant, nthreads=ncpus,
                             schedule="guided", iterations=3, **extra)
        assert fast.fastpath_regions > 0
        assert_identical(fast, ref)

    def test_reduce_publishes_steals(self):
        # ragged edge tiles make the work uneven enough for
        # nonmonotonic:dynamic to steal; the reduction's reference path
        # must publish the same steals counter as its fast path
        fast, ref = run_pair(kernel="heat", variant="omp_tiled", dim=120,
                             tile_w=16, tile_h=16, nthreads=4,
                             schedule="nonmonotonic:dynamic", iterations=3)
        assert fast.fastpath_regions > 0
        assert fast.counters["steals"] > 0
        assert fast.counters == ref.counters
        assert_identical(fast, ref, ["temp"])

    def test_uneven_tiling(self):
        # dim not a multiple of the tile size: ragged edge tiles
        fast, ref = run_pair(kernel="mandel", variant="omp_tiled", dim=72,
                             tile_w=16, tile_h=16, iterations=2)
        assert fast.fastpath_regions > 0
        assert_identical(fast, ref)


class TestBlurFrame:
    """The whole-frame blur (separable ``uint16`` sums mapped through a
    ``(count, sum)`` table) writes exactly the bytes of the vectorized
    per-rectangle blur, on odd, non-square and degenerate frames, over
    the whole frame or a band of its rows."""

    @pytest.mark.parametrize("shape", [
        (97, 97), (33, 70), (64, 17), (3, 3), (2, 2), (1, 5), (5, 1), (1, 1),
    ])
    def test_matches_vectorized_blur(self, shape):
        h, w = shape
        rng = np.random.default_rng(h * 1000 + w)
        frames = [
            rng.integers(0, 2**32, size=shape, dtype=np.uint64).astype(np.uint32),
            np.full(shape, 0xFFFFFFFF, dtype=np.uint32),  # largest sums
            np.zeros(shape, dtype=np.uint32),
        ]
        # the whole frame, and an MPI rank's band of rows
        bands = [(0, h), (h // 3, h - h // 3), (h - 1, 1)]
        for src, (y0, bh) in itertools.product(frames, bands):
            ref = np.zeros_like(src)
            blur_rect_vectorized(src, ref, 0, y0, w, bh)
            out = np.zeros_like(src)
            blur_frame(src, out, y0, bh)
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("variant", ["omp_tiled", "omp_tiled_opt"])
    @pytest.mark.parametrize("dim,tile", [(97, 16), (33, 8)])
    def test_odd_frames(self, variant, dim, tile):
        fast, ref = run_pair(kernel="blur", variant=variant, dim=dim,
                             tile_w=tile, tile_h=tile, iterations=3)
        assert fast.fastpath_regions > 0
        assert_identical(fast, ref)


class TestJitterParity:
    """With jitter on, both paths must draw the same RNG stream — the
    fast path routes costs through the identical perturbation call."""

    @pytest.mark.parametrize("run_index", [0, 2])
    def test_jittered_runs_identical(self, run_index):
        fast, ref = run_pair(kernel="mandel", variant="omp_tiled",
                             jitter=0.1, run_index=run_index, iterations=3)
        assert fast.fastpath_regions > 0
        assert_identical(fast, ref)

    def test_jitter_stream_not_consumed_differently(self):
        # two consecutive regions must see the same draws in both modes
        fast, ref = run_pair(kernel="heat", variant="omp_tiled",
                             jitter=0.05, run_index=1, iterations=4)
        assert_identical(fast, ref, ["temp"])


class TestFastPathGating:
    """Traced and monitored runs keep the fast path (a frame's timeline
    is the reference one); ``fastpath="off"`` and real backends take the
    reference path (footprints too: ``test_telemetry_bus.py``)."""

    def test_tracing_keeps_fastpath(self):
        r = run(make_config(kernel="mandel", variant="omp_tiled", trace=True))
        assert r.fastpath_regions > 0
        assert r.trace is not None and len(r.trace) > 0

    def test_monitoring_keeps_fastpath(self):
        r = run(make_config(kernel="mandel", variant="omp_tiled", monitoring=True))
        assert r.fastpath_regions > 0
        assert r.monitor is not None and r.monitor.records

    def test_fastpath_off_via_config(self):
        r = run(make_config(kernel="mandel", variant="omp_tiled", fastpath="off"))
        assert r.fastpath_regions == 0

    def test_threads_backend_never_fastpaths(self):
        r = run(make_config(kernel="invert", variant="omp_tiled", dim=32,
                            tile_w=8, tile_h=8, backend="threads"))
        assert r.fastpath_regions == 0


class TestRegionLogParity:
    """Sweep captures (replay.py) read ctx.region_log; both paths must
    record identical per-region work vectors."""

    @pytest.mark.parametrize("kernel,variant,extra", [
        ("mandel", "omp_tiled", {}),
        ("heat", "omp_tiled", {}),
        ("life", "omp_tiled", {"arg": "random"}),
        # DAG entries carry their predecessor lists too
        ("lu_wavefront", "seq", {"domain": "wavefront", "dim": 100}),
        ("lu_wavefront", "omp_tiled", {"domain": "wavefront", "dim": 40}),
        ("sandpile", "omp_quadtree", {"domain": "quadtree", "dim": 72, "arg": "center"}),
    ])
    def test_region_log_identical(self, kernel, variant, extra):
        from repro.core.context import ExecutionContext
        from repro.core.kernel import get_kernel

        logs = []
        for fastpath in ("auto", "off"):
            cfg = make_config(kernel=kernel, variant=variant, iterations=3,
                              fastpath=fastpath, **extra)
            k = get_kernel(kernel)
            ctx = ExecutionContext(cfg)
            ctx.region_log = []
            k.init(ctx)
            k.draw(ctx)
            k.compute_fn(variant)(ctx, cfg.iterations)
            logs.append(ctx.region_log)
        fast_log, ref_log = logs
        assert fast_log == ref_log  # exact float equality, element by element


class TestReplayCacheParity:
    def test_work_profile_cache_matches_fast_run(self):
        """The sweep-replay cache must predict a fast run's virtual time
        exactly, whichever path captured the profile."""
        from repro.expt.replay import WorkProfileCache

        cfg = make_config(kernel="mandel", variant="omp_tiled", iterations=2)
        cache = WorkProfileCache()
        assert cache.simulate(cfg) == pytest.approx(run(cfg).virtual_time)
