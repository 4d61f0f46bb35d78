"""Every paper claim at test scale.

Each test measures small runs and calls a claim of
``benchmarks/claims.py``, where every threshold lives; the figure
benches call the same claims at full scale (see DESIGN.md's
per-experiment index).
"""

import io
from contextlib import redirect_stdout
from functools import cache

from benchmarks import claims
from repro.cli import main as easypap_main
from repro.core.engine import run
from repro.expt.csvdb import read_rows
from repro.sched.costmodel import DEFAULT_COST_MODEL
from repro.sched.policies import parse_schedule
from repro.sched.simulator import simulate
from tests.conftest import make_config

SCHEDULES = ["static", "dynamic,2", "nonmonotonic:dynamic", "guided"]


@cache
def mandel(**kw):
    """One small mandel run per configuration, shared by the tests."""
    base = dict(kernel="mandel", variant="omp_tiled", dim=128, tile_w=16,
                tile_h=16, iterations=2, nthreads=4)
    base.update(kw)
    return run(make_config(**base))


class TestFig3Monitoring:
    def test_load_imbalance_between_cpus(self):
        claims.fig03_imbalance(mandel(schedule="static", iterations=3, monitoring=True),
                               mandel(schedule="dynamic", iterations=3, monitoring=True))

    def test_idleness_accumulates(self):
        claims.fig03_idleness(mandel(schedule="static", iterations=3, monitoring=True))


class TestFig4SchedulingPolicies:
    def _run(self, schedule):
        return mandel(schedule=schedule, iterations=1, monitoring=True)

    def test_static_contiguous_blocks(self):
        claims.fig04_static(self._run("static"))

    def test_dynamic_interleaves(self):
        claims.fig04_dynamic(self._run("dynamic,2"))

    def test_nonmonotonic_static_blocks_plus_steals(self):
        claims.fig04_nonmonotonic(self._run("nonmonotonic:dynamic"))

    def test_guided_chunks_decrease(self):
        res = simulate([1e-4] * 64, parse_schedule("guided"), 4, model=DEFAULT_COST_MODEL)
        claims.fig04_guided(res.chunk_sizes())


class TestPerfMode:
    def test_output_line(self, tmp_path):
        csv = tmp_path / "perf.csv"
        out = io.StringIO()
        with redirect_stdout(out):
            rc = easypap_main(["--kernel", "mandel", "--variant", "omp_tiled",
                               "--tile-size", "16", "--iterations", "5", "--no-display",
                               "--size", "128", "--csv", str(csv)])
        claims.perfmode(rc, out.getvalue(), read_rows(csv)[-1], iterations=5)


@cache
def fig6_speedups() -> dict:
    """Speedup curves at 4, 8 and 12 threads; tile 8 gives the 128² image
    the 256 tiles that the dynamic family needs to scale."""
    cfg = dict(dim=128, tile_w=8, tile_h=8, arg="128")
    seq = mandel(variant="seq", nthreads=1, **cfg).virtual_time
    return {(8, s): {t: seq / mandel(schedule=s, nthreads=t, **cfg).virtual_time
                     for t in (4, 8, 12)}
            for s in SCHEDULES}


class TestFig6Speedups:
    def test_schedule_ordering_at_8_threads(self):
        claims.fig06_ordering(fig6_speedups())

    def test_dynamic_scales_with_threads(self):
        claims.fig06_dynamic_scaling(fig6_speedups())

    def test_static_speedup_plateaus(self):
        claims.fig06_static_plateau(fig6_speedups())


class TestFig8DynamicPatterns:
    def _rec(self):
        r = mandel(schedule="dynamic", tile_w=8, tile_h=8, iterations=1, monitoring=True)
        return r.monitor.records[0]

    def test_stripes_of_one_color_appear(self):
        claims.fig08_stripes(self._rec())

    def test_cyclic_in_uniform_cost_area(self):
        claims.fig08_cyclic(self._rec())


class TestFig9Heatmap:
    def test_mandel_heat_correlates_with_set(self):
        claims.fig09_mandel_shape(mandel(iterations=1, monitoring=True))

    def test_blur_border_tiles_brighter(self):
        claims.fig09_blur_borders(run(make_config(
            kernel="blur", variant="omp_tiled_opt", dim=64, tile_w=8, tile_h=8,
            iterations=1, monitoring=True)))


@cache
def blur(**kw):
    # the paper's geometry, a 16x16 tile grid (dim 512, tile 32 there)
    return run(make_config(kernel="blur", dim=256, iterations=2, trace=True, **kw))


class TestFig10BlurComparison:
    def test_overall_3x_and_tiles_8x(self):
        claims.fig10_blur_compare(blur(variant="omp_tiled"), blur(variant="omp_tiled_opt"),
                                  claims.vectorization_gap())

    def test_locality_of_nonmonotonic_vs_dynamic(self):
        claims.fig10_locality(blur(variant="omp_tiled", schedule="nonmonotonic:dynamic"),
                              blur(variant="omp_tiled"))


class TestFig12TaskWave:
    def test_wave_depth_matches_grid(self):
        r = run(make_config(kernel="cc", variant="omp_task", dim=64, iterations=4,
                            nthreads=8, trace=True))
        claims.fig12_taskwave(r, claims.chained_makespan())


@cache
def life(**kw):
    return run(make_config(kernel="life", dim=256, iterations=6, arg="diag", **kw))


class TestFig13MpiLife:
    def _mpi(self):
        return life(variant="mpi_omp", mpi_np=2, monitoring=True, debug="M")

    def test_half_image_per_process_and_diagonal_tiles_only(self):
        claims.fig13_halves(self._mpi(), life(variant="seq").image)

    def test_threads_within_each_process(self):
        claims.fig13_threads(self._mpi())


def test_abl_overhead():
    claims.abl_overhead(claims.measure_abl_overhead(dim=128, iterations=1))


def test_abl_stealing():
    claims.abl_stealing(claims.measure_abl_stealing(dim=128))


def test_ext_cache():
    claims.ext_cache(claims.measure_ext_cache(dim=64))


def test_ext_gpu():
    claims.ext_gpu(claims.measure_ext_gpu(lane_dim=128, ocl_dim=64, transfer_dim=64))


def test_wavefront_schedules_and_pinned_makespans():
    """Virtual makespans are model output, the same on every host, so
    they are pinned to the nanosecond: a change means the scheduler's
    semantics changed."""
    lu, domains = claims.measure_wavefront()
    claims.wavefront_schedules(lu)
    assert {s: round(t, 9) for s, t in lu.items()} == {
        "static": 0.00551437, "dynamic": 0.001814413, "nonmonotonic:dynamic": 0.001814413,
    }
    assert {k: round(t, 9) for k, t in domains.items()} == {
        "grid": 0.00030384, "wavefront": 0.00078185, "slab3d": 0.000454195,
    }
