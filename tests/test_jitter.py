"""Tests for the system-noise (jitter) model."""

import numpy as np
import pytest

from repro.core.engine import run
from repro.errors import ConfigError
from repro.expt.replay import WorkProfileCache
from repro.sched.costmodel import perturb
from repro.util.rng import make_jitter_rng
from tests.conftest import make_config


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        rng = make_jitter_rng(0)
        costs = [1.0, 2.0, 3.0]
        assert perturb(costs, rng, 0.0) == costs

    def test_noise_is_multiplicative_and_positive(self):
        rng = make_jitter_rng(0)
        costs = perturb([1.0] * 1000, rng, 0.1)
        assert all(c > 0 for c in costs)
        assert np.mean(costs) == pytest.approx(1.0, abs=0.02)
        assert np.std(costs) == pytest.approx(0.1, abs=0.02)

    def test_floor_at_5_percent(self):
        rng = make_jitter_rng(0)
        costs = perturb([1.0] * 200, rng, 10.0)  # absurd sigma
        assert min(costs) >= 0.05

    def test_stream_depends_on_run_index(self):
        a = perturb([1.0] * 4, make_jitter_rng(5, 0), 0.1)
        b = perturb([1.0] * 4, make_jitter_rng(5, 1), 0.1)
        c = perturb([1.0] * 4, make_jitter_rng(5, 0), 0.1)
        assert a == c
        assert a != b

    def test_empty(self):
        assert perturb([], make_jitter_rng(0), 0.1) == []


class TestJitteredRuns:
    def _run(self, run_index=0, jitter=0.05, **kw):
        return run(make_config(kernel="mandel", variant="omp_tiled",
                               iterations=2, jitter=jitter,
                               run_index=run_index, **kw))

    def test_repetitions_differ(self):
        times = {self._run(run_index=i).virtual_time for i in range(4)}
        assert len(times) == 4

    def test_each_repetition_reproducible(self):
        assert self._run(run_index=2).virtual_time == \
            self._run(run_index=2).virtual_time

    def test_noise_does_not_change_results(self):
        clean = run(make_config(kernel="mandel", variant="omp_tiled", iterations=2))
        noisy = self._run()
        assert np.array_equal(clean.image, noisy.image)

    def test_noise_magnitude_reasonable(self):
        clean = run(make_config(kernel="mandel", variant="omp_tiled",
                                iterations=2)).virtual_time
        noisy = self._run().virtual_time
        assert abs(noisy - clean) / clean < 0.25

    def test_task_regions_jittered(self):
        a = run(make_config(kernel="cc", variant="omp_task", iterations=4,
                            jitter=0.05, run_index=0)).virtual_time
        b = run(make_config(kernel="cc", variant="omp_task", iterations=4,
                            jitter=0.05, run_index=1)).virtual_time
        assert a != b

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigError):
            make_config(jitter=-0.1)

    def test_replay_matches_jittered_run_exactly(self):
        cache = WorkProfileCache()
        for rep in range(3):
            cfg = make_config(kernel="mandel", variant="omp_tiled",
                              iterations=2, jitter=0.05, run_index=rep,
                              nthreads=3)
            assert cache.simulate(cfg) == pytest.approx(run(cfg).virtual_time)

    def test_exptools_runs_produce_error_bars(self, tmp_path):
        from repro.expt.exptools import execute
        from repro.expt.easyplot import build_plot

        csv = tmp_path / "p.csv"
        execute(
            "easypap",
            {"OMP_NUM_THREADS=": [2, 4]},
            {"--kernel ": ["mandel"], "--variant ": ["omp_tiled"],
             "--size ": [64], "--grain ": [16], "--iterations ": [2],
             "--jitter ": [0.05]},
            runs=4, csv_path=csv, reuse_work=True,
        )
        from repro.expt.csvdb import read_rows

        spec = build_plot(read_rows(csv), x="threads")
        series = spec.facets[0].series[0]
        assert all(e > 0 for e in series.yerr)  # real error bars now


class TestLazyStreams:
    """``ctx.rng`` and ``ctx.jitter_rng`` are built on first draw; the
    draws, and so the clocks and images, are the ones eager streams
    gave (values pinned from the eager implementation)."""

    @pytest.mark.parametrize("kernel,variant,clock", [
        ("blur", "seq", "0x1.a5566cf093c58p-10"),
        ("blur", "omp_tiled", "0x1.bdd92f358a608p-12"),
        ("mandel", "seq", "0x1.4006a76d20cc4p-10"),
        ("mandel", "omp_tiled", "0x1.4a5081198e10ap-11"),
    ])
    def test_jittered_clock_unchanged(self, kernel, variant, clock):
        res = run(make_config(kernel=kernel, variant=variant, jitter=0.05, run_index=1))
        assert res.virtual_time.hex() == clock

    def test_unjittered_run_never_builds_the_noise_stream(self):
        res = run(make_config(kernel="mandel", variant="omp_tiled"))
        assert "jitter_rng" not in vars(res.context)
        assert "rng" not in vars(res.context)

    def test_jittered_reuse_work_sweep_equals_live_sweep(self, tmp_path):
        from repro.expt.exptools import execute

        times = {}
        for reuse in (False, True):
            rows = execute(
                "easypap",
                {"OMP_NUM_THREADS=": [2, 3]},
                {"--kernel ": ["blur"], "--variant ": ["omp_tiled"], "--size ": [64],
                 "--grain ": [16], "--iterations ": [2], "--jitter ": [0.05]},
                runs=2, csv_path=tmp_path / f"{reuse}.csv", reuse_work=reuse,
            )
            times[reuse] = sorted((r["threads"], r["run"], r["time_us"]) for r in rows)
        assert times[True] == times[False]
