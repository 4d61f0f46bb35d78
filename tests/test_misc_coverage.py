"""Targeted tests for remaining corners of the public surface."""

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.engine import run
from repro.sched.costmodel import CostModel
from tests.conftest import make_config

ZERO = CostModel(1.0, 0.0, 0.0, 0.0)


class TestContextMisc:
    def test_advance_clock_rejects_negative(self):
        ctx = ExecutionContext(make_config(), model=ZERO)
        with pytest.raises(ValueError):
            ctx.advance_clock(-1.0)

    def test_image_macros(self):
        ctx = ExecutionContext(make_config(dim=16, tile_w=8, tile_h=8))
        assert ctx.DIM == 16 and ctx.TILE_W == 8 and ctx.TILE_H == 8
        ctx.set_cur(1, 2, 77)
        assert ctx.cur_img(1, 2) == 77
        ctx.set_next(3, 4, 88)
        assert ctx.next_img(3, 4) == 88
        ctx.swap_images()
        assert ctx.cur_img(3, 4) == 88

    def test_run_on_master_returns_value_and_charges_work(self):
        ctx = ExecutionContext(make_config(), model=ZERO)
        out = ctx.run_on_master(lambda: "hello", work=3.0)
        assert out == "hello"
        assert ctx.vclock == pytest.approx(3.0)

    def test_time_scale_scales_times(self):
        slow = run(make_config(kernel="mandel", variant="omp_tiled",
                               iterations=1, time_scale=10.0))
        fast = run(make_config(kernel="mandel", variant="omp_tiled",
                               iterations=1, time_scale=1.0))
        assert slow.virtual_time == pytest.approx(10.0 * fast.virtual_time)


class TestDisplayMode:
    def test_frame_hook_sees_refreshed_image(self):
        frames = []

        def hook(ctx, it):
            frames.append(ctx.img.copy_cur())

        run(make_config(kernel="invert", variant="seq", iterations=2),
            frame_hook=hook)
        assert len(frames) == 2
        assert not np.array_equal(frames[0], frames[1])


class TestExptoolsVerbose:
    def test_verbose_prints_progress(self, tmp_path, capsys):
        from repro.expt.exptools import execute

        execute(
            "easypap",
            {"OMP_NUM_THREADS=": [2]},
            {"--kernel ": ["none"], "--variant ": ["omp_tiled"],
             "--size ": [32], "--grain ": [16], "--iterations ": [1]},
            runs=1, csv_path=tmp_path / "x.csv", verbose=True,
        )
        out = capsys.readouterr().out
        assert "kernel=none" in out and "time=" in out


class TestMpiRefreshComposition:
    def test_life_display_composes_on_master_only(self):
        r = run(make_config(kernel="life", variant="mpi_omp", mpi_np=2,
                            dim=64, tile_w=16, tile_h=16, iterations=2,
                            arg="gun"))
        ref = run(make_config(kernel="life", variant="seq", dim=64,
                              tile_w=16, tile_h=16, iterations=2, arg="gun"))
        master, other = r.rank_results
        assert np.array_equal(master.image, ref.image)
        # the non-master rank never receives the other half
        top_half = other.image[:32]
        assert not np.array_equal(top_half, ref.image[:32])


class TestSimResultChunkLog:
    def test_grab_ordering_is_chronological(self):
        from repro.sched.policies import DynamicSchedule
        from repro.sched.simulator import simulate

        res = simulate([1.0] * 8, DynamicSchedule(2), 2, model=ZERO)
        times = [g.time for g in sorted(res.grabs, key=lambda g: (g.time, g.cpu))]
        assert times == sorted(times)
        assert sum(g.size for g in res.grabs) == 8
