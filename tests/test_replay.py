"""Tests for work-profile capture & replay and the schedule-result memo."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import run
from repro.errors import ConfigError
from repro.expt.csvdb import strip_provenance
from repro.expt.executors.base import RunOptions, SweepJob, run_point
from repro.expt.exptools import execute
from repro.expt.replay import WorkProfileCache, capture_log, replay_log
from tests.conftest import make_config


class TestCapture:
    def test_parallel_kernel_logs_par_regions(self):
        cfg = make_config(kernel="mandel", variant="omp_tiled", iterations=3)
        log, model, completed = capture_log(cfg)
        assert completed == 3
        pars = [e for e in log if e[0] == "par"]
        assert len(pars) == 3
        assert all(len(e[1]) == 16 for e in pars)  # 4x4 tiles

    def test_task_kernel_logs_dags(self):
        cfg = make_config(kernel="cc", variant="omp_task", iterations=4)
        log, _, _ = capture_log(cfg)
        dags = [e for e in log if e[0] == "dag"]
        assert dags
        works, preds = dags[0][1], dags[0][2]
        assert len(works) == len(preds) == 16

    def test_mpi_rejected(self):
        cfg = make_config(kernel="life", variant="mpi_omp", mpi_np=2)
        with pytest.raises(ConfigError):
            capture_log(cfg)

    def test_gpu_variant_rejected(self):
        # GPU launches move the clock without writing the region log,
        # so the log would replay to 0 s
        with pytest.raises(ConfigError, match="replay"):
            capture_log(make_config(kernel="mandel", variant="ocl"))

    def test_gpu_variant_sweep_yields_error_row(self, tmp_path):
        rows = execute(
            "easypap",
            {"OMP_NUM_THREADS=": [2]},
            {"--kernel ": ["mandel"], "--variant ": ["ocl"], "--size ": [64],
             "--grain ": [16], "--iterations ": [2]},
            runs=1,
            csv_path=tmp_path / "ocl.csv",
            reuse_work=True,
        )
        assert [r["status"] for r in rows] == ["error"]
        assert rows[0]["time_us"] == ""
        assert "replay" in rows[0]["error"]


class TestReplay:
    @pytest.mark.parametrize("kernel, variant", [
        pytest.param("mandel", "omp_tiled", id="omp_tiled"),
        pytest.param("mandel", "tiled", id="tiled"),
        pytest.param("life", "seq", id="life-seq"),
    ])
    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided",
                                          "nonmonotonic:dynamic"])
    def test_replay_equals_full_run(self, kernel, variant, schedule):
        base = make_config(kernel=kernel, variant=variant, iterations=2)
        cache = WorkProfileCache()
        for threads in (1, 3, 5):
            cfg = base.with_(nthreads=threads, schedule=schedule)
            assert cache.simulate(cfg) == run(cfg).elapsed

    def test_replay_equals_full_run_for_tasks(self):
        base = make_config(kernel="cc", variant="omp_task", iterations=6)
        cache = WorkProfileCache()
        for threads in (2, 4):
            cfg = base.with_(nthreads=threads)
            assert cache.simulate(cfg) == run(cfg).elapsed

    def test_replayed_stealing_row_equals_live_row(self):
        base = make_config(dim=128, schedule="nonmonotonic:dynamic")
        for threads in (2, 4):
            job = SweepJob(0, base.with_(nthreads=threads), 0)
            live = run_point(job, RunOptions())
            replayed = run_point(job, RunOptions(reuse_work=True), WorkProfileCache())
            assert live["steals"] > 0
            assert strip_provenance(replayed) == strip_provenance(live)

    def test_cache_reused_across_configs(self):
        cache = WorkProfileCache()
        base = make_config(kernel="mandel", variant="omp_tiled")
        cache.simulate(base.with_(nthreads=2))
        cache.simulate(base.with_(nthreads=8, schedule="static"))
        assert len(cache._cache) == 1  # same workload key

    def test_different_workloads_not_conflated(self):
        cache = WorkProfileCache()
        base = make_config(kernel="mandel", variant="omp_tiled")
        cache.simulate(base)
        cache.simulate(base.with_(dim=32))
        assert len(cache._cache) == 2

    def test_unknown_entry_kind_rejected(self):
        from repro.sched.costmodel import DEFAULT_COST_MODEL
        from repro.sched.policies import parse_schedule

        with pytest.raises(ConfigError):
            replay_log([("bogus",)], nthreads=2,
                       policy=parse_schedule("dynamic"),
                       model=DEFAULT_COST_MODEL)


class TestMemo:
    def test_hit_equals_fresh_replay(self):
        cfg = make_config(iterations=2)
        cache = WorkProfileCache()
        first = cache.simulate(cfg)
        assert cache.last_memo == "miss"
        again = cache.simulate(cfg)
        assert cache.last_memo == "hit"
        fresh = WorkProfileCache().simulate(cfg)  # a first call replays
        assert first == again == fresh
        assert cache.counters == {"memo_hits": 1, "memo_misses": 1}

    def test_distinct_points_do_not_collide(self):
        cache = WorkProfileCache()
        base = make_config(iterations=1)
        t2 = cache.simulate(base.with_(nthreads=2))
        t8 = cache.simulate(base.with_(nthreads=8))
        assert cache.counters["memo_misses"] == 2
        assert t2 != t8  # different thread counts really were replayed

    def test_memo_persists_across_instances(self, tmp_path):
        cfg = make_config(iterations=2, schedule="nonmonotonic:dynamic")
        first = WorkProfileCache(cache_dir=tmp_path)
        t1 = first.simulate(cfg)
        warm = WorkProfileCache(cache_dir=tmp_path)
        t2 = warm.simulate(cfg)
        assert warm.counters == {"memo_hits": 1, "memo_misses": 0}
        assert t1 == t2

    def test_corrupt_memo_file_recomputes(self, tmp_path):
        cfg = make_config(iterations=1)
        cache = WorkProfileCache(cache_dir=tmp_path)
        expected = cache.simulate(cfg)
        for memo_file in tmp_path.glob("memo-*.pkl"):
            memo_file.write_bytes(b"garbage")
        cold = WorkProfileCache(cache_dir=tmp_path)
        assert cold.simulate(cfg) == expected
        assert cold.counters["memo_misses"] == 1

    def test_workload_key_includes_fastpath(self):
        # a fast-path capture never serves an interpreted point
        cfg = make_config()
        assert WorkProfileCache.workload_key(cfg.with_(fastpath="off")) != \
            WorkProfileCache.workload_key(cfg.with_(fastpath="auto"))


@settings(max_examples=12, deadline=None)
@given(
    nthreads=st.integers(min_value=1, max_value=6),
    schedule=st.sampled_from([
        "static", "dynamic", "dynamic,3", "guided",
        "nonmonotonic:dynamic", "nonmonotonic:dynamic,2",
    ]),
    run_index=st.integers(min_value=0, max_value=2),
)
def test_memoized_equals_fresh_for_every_schedule(nthreads, schedule, run_index):
    """Property: for every schedule family, work stealing included, the
    memoized elapsed time equals a fresh replay of the same point,
    exactly."""
    cfg = make_config(
        dim=32, tile_w=8, tile_h=8, iterations=1,
        nthreads=nthreads, schedule=schedule, run_index=run_index,
    )
    memo_cache = WorkProfileCache()
    first = memo_cache.simulate(cfg)
    hit = memo_cache.simulate(cfg)
    fresh = WorkProfileCache().simulate(cfg)  # a first call replays
    assert first == hit == fresh
    assert memo_cache.counters["memo_hits"] >= 1
