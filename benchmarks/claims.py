"""The paper's claims, one function each, where every threshold lives.

A claim function takes measured data and raises ``AssertionError``,
naming its claim, when the shape the paper reports does not hold.  The
``bench_*`` scripts call the claims at figure scale; the tier-1 suite
(``tests/test_paper_claims.py``) calls them, or the panel checks a
figure's claim is made of, at test scale.  A check that holds at one
scale only takes the scale as an argument and says so.  The module
imports nothing from ``benchmarks/``, so the tests can import it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import RunConfig
from repro.core.engine import run
from repro.expt.replay import capture_log, replay_log
from repro.gpu.device import DeviceSpec, GpuDevice
from repro.kernels.blur import blur_rect_scalar, blur_rect_vectorized
from repro.kernels.mandel import mandel_counts
from repro.monitor.cache import (
    CacheSpec,
    simulate_trace_cache,
    stencil_access_pattern,
    transpose_access_pattern,
)
from repro.sched.costmodel import CostModel
from repro.sched.dag_sim import simulate_dag
from repro.sched.policies import NonMonotonicDynamic
from repro.sched.simulator import simulate
from repro.sched.taskgraph import TaskGraph
from repro.trace.compare import TraceComparison
from repro.trace.coverage import locality_score

DYNAMIC_FAMILY = ("guided", "dynamic,2", "nonmonotonic:dynamic")


# -- measurements --------------------------------------------------------------


def ownership_changes(owners) -> int:
    """Owner changes between consecutive tiles, in row-major order."""
    return int((np.diff(np.asarray(owners).ravel()) != 0).sum())


def longest_run(row) -> int:
    """Length of the longest run of one owner in a tile row."""
    best = run_ = 1
    for a, b in zip(row, row[1:]):
        run_ = run_ + 1 if a == b else 1
        best = max(best, run_)
    return best


def uniform_row(rec) -> int:
    """Index of the tile row whose durations vary the least."""
    heat = rec.heat
    return int((heat.max(axis=1) / np.maximum(heat.min(axis=1), 1e-300)).argmin())


def heat_set_correlation(mandel) -> float:
    """Correlation of a mandel tile's duration with its in-set pixel share."""
    heat = mandel.monitor.records[0].heat
    rows, cols = heat.shape
    dark = (mandel.image >> 8) == 0
    frac = dark.reshape(rows, dark.shape[0] // rows, cols, -1).mean(axis=(1, 3))
    return float(np.corrcoef(frac.ravel(), heat.ravel())[0, 1])


def border_inner_ratio(heat: np.ndarray) -> float:
    """Mean duration of the border tiles over that of the inner tiles."""
    border = np.concatenate([heat[0], heat[-1], heat[1:-1, 0], heat[1:-1, -1]])
    return float(border.mean() / heat[1:-1, 1:-1].mean())


def task_waves(trace, tile: int) -> dict[int, list[float]]:
    """Start times of iteration 1's down-right tasks, by anti-diagonal."""
    waves: dict[int, list[float]] = {}
    for e in trace.events:
        if e.kind == "task_dr" and e.iteration == 1:
            waves.setdefault(e.y // tile + e.x // tile, []).append(e.start)
    return waves


def rank_threads(rec) -> int:
    """Number of threads a monitored iteration shows."""
    return len(np.unique(rec.tiling[rec.tiling >= 0]))


def chained_makespan() -> float:
    """Makespan of the students' over-constrained task graph: 64 unit
    tasks, each depending on the previous submission, on 8 CPUs."""
    g = TaskGraph()
    prev = None
    for i in range(64):
        prev = g.add_task(i, cost=1.0, depends_on=[] if prev is None else [prev])
    return simulate_dag(g, 8, model=CostModel(1.0, 0.0, 0.0, 0.0)).makespan


def vectorization_gap() -> float:
    """Wall-time ratio of the scalar to the vectorized blur on one 32x32
    tile: the mechanism behind Fig. 10's per-tile factor."""
    src = np.random.default_rng(0).integers(0, 2**32, (64, 64), dtype=np.uint32)
    dst = np.zeros_like(src)
    t0 = time.perf_counter()
    blur_rect_scalar(src, dst, 16, 16, 32, 32)
    scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(20):
        blur_rect_vectorized(src, dst, 16, 16, 32, 32)
    return scalar / ((time.perf_counter() - t0) / 20)


def measure_abl_overhead(dim: int, iterations: int) -> dict:
    """Grain -> (mandel time, the same with no dispatch overhead, time
    of the no-op kernel), for dynamic mandel on 4 CPUs."""
    results = {}
    for grain in (4, 8, 16, 32, 64, 128):
        cfg = RunConfig(kernel="mandel", variant="omp_tiled", dim=dim, tile_w=grain,
                        tile_h=grain, iterations=iterations, nthreads=4,
                        schedule="dynamic", arg="128")
        log, model, _ = capture_log(cfg)
        with_ovh, _ = replay_log(log, nthreads=4, policy=cfg.policy(), model=model)
        no_ovh, _ = replay_log(log, nthreads=4, policy=cfg.policy(),
                               model=model.zero_overhead())
        results[grain] = (with_ovh, no_ovh, run(cfg.with_(kernel="none")).virtual_time)
    return results


def measure_abl_stealing(dim: int) -> dict:
    """Configuration -> (makespan, steals) of one mandel frame's 8x8
    tiles, then of as many tiles of uniform cost, on 4 CPUs."""
    cfg = RunConfig(kernel="mandel", variant="omp_tiled", dim=dim, tile_w=8, tile_h=8,
                    iterations=1, nthreads=4, arg="128")
    log, model, _ = capture_log(cfg)
    costs = model.times_of(next(e[1] for e in log if e[0] == "par"))
    out = {}
    for suffix, works in (("", costs), (" (uniform)", [costs[0]] * len(costs))):
        for label, half in (("steal-one", False), ("steal-half", True)):
            res = simulate(works, NonMonotonicDynamic(1, steal_half=half), 4, model=model)
            out[label + suffix] = (res.makespan, res.steals)
    return out


def measure_ext_cache(dim: int) -> dict:
    """Blur's hit rate per cache size (KiB), and transpose's line misses
    per pixel per grain in a 32 KiB cache."""
    blur = run(RunConfig(kernel="blur", variant="omp_tiled", dim=dim, tile_w=16,
                         tile_h=16, iterations=2, nthreads=2, trace=True))
    out = {"blur": {}, "transpose": {}}
    for kb in (4, 32, 256):
        res = simulate_trace_cache(blur.trace, dim, stencil_access_pattern,
                                   CacheSpec(size_bytes=kb * 1024))
        out["blur"][kb] = sum(c.hits for _, c in res) / sum(c.accesses for _, c in res)
    for grain in (4, 8, 16, 32):
        tr = run(RunConfig(kernel="transpose", variant="omp_tiled", dim=dim, tile_w=grain,
                           tile_h=grain, iterations=1, nthreads=2, trace=True))
        res = simulate_trace_cache(tr.trace, dim, transpose_access_pattern,
                                   CacheSpec(size_bytes=32 * 1024))
        out["transpose"][grain] = sum(c.misses for _, c in res) / (dim * dim)
    return out


def measure_ext_gpu(lane_dim: int, ocl_dim: int, transfer_dim: int) -> dict:
    """The SIMT device: (group size, divergence penalty, makespan) over
    one mandel frame's per-pixel costs at ``lane_dim``; a traced mandel
    ``ocl`` run at ``ocl_dim``; the transfer share of one blur and one
    mandel (``arg`` 1024) launch at ``transfer_dim``."""
    xs = np.linspace(-2.5, 1.5, lane_dim)[np.newaxis, :]
    ys = np.linspace(1.5, -2.5, lane_dim)[:, np.newaxis]
    lane = mandel_counts(xs, ys, 128)[0].astype(np.float64)
    groups = []
    for g in (4, 8, 16, 32):
        launch = GpuDevice(DeviceSpec(num_cus=8)).launch(lane, group_w=g, group_h=g)
        groups.append((g, launch.divergence_penalty, launch.makespan))
    tcfg = dict(variant="ocl", dim=transfer_dim, tile_w=16, tile_h=16, iterations=1,
                nthreads=8)
    return {
        "groups": groups,
        "ocl": run(RunConfig(kernel="mandel", variant="ocl", dim=ocl_dim, tile_w=16,
                             tile_h=16, iterations=2, nthreads=8, trace=True, arg="128")),
        "blur_frac": run(RunConfig(kernel="blur", **tcfg)).context.data["transfer_fraction"],
        "mandel_frac": run(RunConfig(kernel="mandel", arg="1024", **tcfg)
                           ).context.data["transfer_fraction"],
        "transfer_dim": transfer_dim,
    }


def measure_wavefront() -> tuple[dict, dict]:
    """Virtual makespans of blocked LU (128², 4 CPUs) by schedule, and of
    mandel 64² by work domain."""
    lu = {s: run(RunConfig(kernel="lu_wavefront", variant="omp_tiled", dim=128, tile_w=16,
                           tile_h=16, iterations=1, nthreads=4, schedule=s)).virtual_time
          for s in ("static", "dynamic", "nonmonotonic:dynamic")}
    domains = {k: run(RunConfig(kernel="mandel", variant="omp_tiled", dim=64, tile_w=16,
                                tile_h=16, iterations=1, nthreads=4, schedule="dynamic",
                                domain=k)).virtual_time
               for k in ("grid", "wavefront", "slab3d")}
    return lu, domains


# -- the claims ----------------------------------------------------------------


def fig03_imbalance(static, dynamic) -> None:
    """Fig. 3: static mandel's CPUs are imbalanced; dynamic's are not."""
    loads = static.monitor.records[-1].load_percent()
    assert max(loads) > 95.0 and min(loads) < 60.0, f"Fig. 3 static per-CPU loads {loads}"
    assert static.monitor.load_imbalance() > 1.4, "Fig. 3 static imbalance (max/mean)"
    assert dynamic.monitor.load_imbalance() < 1.15, "Fig. 3 dynamic control not balanced"
    assert static.monitor.cumulated_idleness > 3 * dynamic.monitor.cumulated_idleness, \
        "Fig. 3 static must idle far more than dynamic"


def fig03_idleness(static) -> None:
    """Fig. 3: static mandel's cumulated-idleness history grows."""
    hist = static.monitor.idleness_history
    assert all(b >= a for a, b in zip(hist, hist[1:])) and hist[-1] > 0, \
        f"Fig. 3 idleness history must grow: {hist}"


def fig03_monitoring(static, dynamic) -> None:
    """Fig. 3, from monitored mandel runs under static and dynamic."""
    fig03_imbalance(static, dynamic)
    fig03_idleness(static)


def fig04_static(static) -> None:
    """Fig. 4a: static gives each CPU one contiguous block, no steals."""
    rec = static.monitor.records[0]
    assert ownership_changes(rec.tiling) == static.config.nthreads - 1, "Fig. 4a not contiguous"
    assert not rec.stolen.any(), "Fig. 4a static never steals"


def fig04_dynamic(dynamic) -> None:
    """Fig. 4b: dynamic,2 interleaves owners opportunistically."""
    changes = ownership_changes(dynamic.monitor.records[0].tiling)
    assert changes > 10, f"Fig. 4b dynamic,2 must interleave owners ({changes} changes)"


def fig04_nonmonotonic(nonmonotonic) -> None:
    """Fig. 4c: nonmonotonic:dynamic keeps static blocks, plus steals."""
    rec = nonmonotonic.monitor.records[0]
    assert rec.stolen.any(), "Fig. 4c nonmonotonic:dynamic must steal"
    own = rec.tiling.ravel()[~rec.stolen.ravel()]
    assert ownership_changes(own) <= 4, "Fig. 4c unstolen tiles must keep their static block"


def fig04_guided(sizes: list[int]) -> None:
    """Fig. 4d: guided chunk sizes, in grab order of 64 equal tasks on 4
    CPUs, decrease."""
    assert all(a >= b for a, b in zip(sizes, sizes[1:])) and sizes[0] > sizes[-1], \
        f"Fig. 4d guided chunk sizes must decrease: {sizes}"
    assert sizes[0] == 8, "Fig. 4d guided first chunk is ceil(64 / (2 * 4 CPUs))"


def fig04_schedules(results: dict, guided_sizes: list[int]) -> None:
    """Fig. 4, from one monitored iteration per schedule on 4 CPUs."""
    fig04_static(results["static"])
    fig04_dynamic(results["dynamic,2"])
    fig04_nonmonotonic(results["nonmonotonic:dynamic"])
    fig04_guided(guided_sizes)


def perfmode(rc: int, output: str, row: dict, iterations: int) -> None:
    """§II-C: performance mode prints "<n> iterations completed in
    <time>" and appends the run's CSV row."""
    assert rc == 0, "§II-C easypap must exit 0"
    assert output.strip().startswith(f"{iterations} iterations completed in"), \
        f"§II-C performance-mode line: {output!r}"
    assert row["kernel"] == "mandel" and row["time_us"] > 0, f"§II-C CSV row: {row}"


# The Fig. 6 checks take ``speedup``: ``(grain, schedule)`` -> {threads:
# speedup over the sequential reference}, each curve holding 4, 8 and 12.


def fig06_ordering(speedup: dict) -> None:
    """Fig. 6: the dynamic family beats static at 8 and 12 threads, and
    guided, whose large first chunks pay a balance penalty on irregular
    work, still clearly at 12."""
    for (g, sched), curve in speedup.items():
        static = speedup[(g, "static")]
        if sched in DYNAMIC_FAMILY:
            assert curve[8] > static[8] and curve[12] > static[12], \
                f"Fig. 6 grain={g}: {sched} must beat static"
    for g in {g for g, _ in speedup}:
        assert speedup[(g, "guided")][12] > 1.25 * speedup[(g, "static")][12], \
            f"Fig. 6 grain={g}: guided must clearly beat static"


def fig06_dynamic_scaling(speedup: dict) -> None:
    """Fig. 6: dynamic,2 scales near-linearly, nonmonotonic close by."""
    for g in {g for g, _ in speedup}:
        dyn = speedup[(g, "dynamic,2")]
        for t, floor in ((4, 3.0), (8, 5.5), (12, 8.0)):
            assert dyn[t] > floor, f"Fig. 6 grain={g}: dynamic,2 {dyn[t]:.2f}x at {t} threads"
        nm = speedup[(g, "nonmonotonic:dynamic")][12]
        assert max(dyn[12], nm) / min(dyn[12], nm) < 1.25, \
            f"Fig. 6 grain={g}: dynamic,2 and nonmonotonic must cluster"


def fig06_static_plateau(speedup: dict) -> None:
    """Fig. 6: static's speedup plateaus far below linear."""
    for g in {g for g, _ in speedup}:
        static = speedup[(g, "static")]
        for t, ceiling in ((8, 5.0), (12, 6.0)):
            assert static[t] < ceiling, f"Fig. 6 grain={g}: static {static[t]:.2f}x at {t}"


def fig06_speedup(speedup: dict) -> None:
    """Fig. 6: static worst and plateauing, the dynamic family near-linear."""
    fig06_ordering(speedup)
    fig06_dynamic_scaling(speedup)
    fig06_static_plateau(speedup)


def fig08_stripes(rec) -> None:
    """Fig. 8 pattern 1: under dynamic, runs of one color where tiles are
    cheap (the other threads are stuck on heavy in-set tiles)."""
    stripe = max(longest_run(row) for row in rec.tiling.tolist())
    assert stripe >= 5, f"Fig. 8 pattern 1: longest same-color run is {stripe}"


def fig08_cyclic(rec) -> None:
    """Fig. 8 pattern 2: a cyclic distribution where tiles cost the same."""
    owners = rec.tiling[uniform_row(rec)].tolist()
    assert ownership_changes(owners) >= len(owners) - 2, \
        f"Fig. 8 pattern 2: uniform-cost row not cyclic: {owners}"


def fig08_patterns(rec) -> None:
    """Fig. 8, from one monitored dynamic iteration with small tiles."""
    fig08_stripes(rec)
    fig08_cyclic(rec)


def fig09_mandel_shape(mandel) -> None:
    """Fig. 9a: the Mandelbrot set's shape shows in the heat map."""
    corr = heat_set_correlation(mandel)
    assert corr > 0.6, f"Fig. 9a set shape not visible: correlation {corr:.3f}"


def fig09_blur_borders(blur) -> None:
    """Fig. 9b: optimized blur's border tiles are brighter than its inner."""
    heat = blur.monitor.records[0].heat
    ratio = border_inner_ratio(heat)
    assert ratio > 4.0, f"Fig. 9b border/inner duration ratio {ratio:.2f}"
    assert heat[0].mean() > 2 * heat[1:-1, 1:-1].mean(), "Fig. 9b top row not brighter"


def fig09_heatmap(mandel, blur) -> None:
    """Fig. 9, from one monitored iteration of mandel and optimized blur."""
    fig09_mandel_shape(mandel)
    fig09_blur_borders(blur)


def fig10_blur_compare(basic, opt, vector_gap: float) -> None:
    """Fig. 10: optimized blur computes the same image about 3x faster
    overall, and its inner tiles run about 8x faster (the inner share of
    the square tile grid).  ``basic`` and ``opt`` are traced runs;
    ``vector_gap`` is :func:`vectorization_gap`'s."""
    assert np.array_equal(basic.image, opt.image), "Fig. 10 images must match"
    cmp_ = TraceComparison(basic.trace, opt.trace)
    overall = cmp_.overall_factor()
    assert 2.0 < overall < 4.5, f"Fig. 10 overall x{overall:.2f}, paper ~x3"
    p90 = cmp_.speedup_quantiles()[1]
    assert p90 >= 7.5, f"Fig. 10 per-tile p90 x{p90:.2f}, paper ~x10"
    n = basic.config.dim // basic.config.tile_w
    inner, frac = (n - 2) ** 2 / n**2, cmp_.faster_tile_fraction(7.5)
    assert abs(frac - inner) < 0.1, f"Fig. 10 {frac:.1%} of tiles >= 7.5x, inner {inner:.1%}"
    assert vector_gap > 5.0, f"Fig. 10 scalar/vectorized gap x{vector_gap:.1f}"


def fig10_locality(nonmonotonic, dynamic) -> None:
    """Fig. 10: a CPU's tiles stay regrouped under nonmonotonic:dynamic,
    so its trace has better locality than dynamic's."""
    nm, dyn = locality_score(nonmonotonic.trace), locality_score(dynamic.trace)
    assert nm < dyn, f"Fig. 10 locality: nonmonotonic {nm:.2f} vs dynamic {dyn:.2f}"


def fig12_taskwave(result, serial_makespan: float) -> None:
    """Figs. 11–12: connected components' down-right tasks run as a wave
    of anti-diagonals; over-constrained dependencies serialize.
    ``result`` is a traced cc/omp_task run; ``serial_makespan`` is
    :func:`chained_makespan`'s."""
    cfg = result.config
    waves = task_waves(result.trace, cfg.tile_w)
    n = cfg.dim // cfg.tile_w
    assert len(waves) == 2 * n - 1, f"Fig. 12: {len(waves)} anti-diagonals for {n}x{n} tiles"
    firsts = [min(waves[d]) for d in sorted(waves)]
    assert firsts == sorted(firsts), "Fig. 12 wave fronts must start in diagonal order"
    starts = {round(s, 9) for w in waves.values() for s in w}
    assert len(starts) >= 4, "Fig. 12: the wave needs more phases than a flat loop"
    assert serial_makespan == 64.0, "Fig. 12 over-constrained tasks must serialize"


def fig13_halves(result, seq_image: np.ndarray) -> None:
    """Fig. 13: each rank computes only the diagonal tiles of its half,
    and together they compute the sequential kernel's ``seq_image``."""
    assert np.array_equal(result.image, seq_image), "Fig. 13 image must match seq"
    for rank, rr in enumerate(result.rank_results):
        rec = rr.monitor.records[-1]
        rows = np.argwhere(rec.tiling >= 0)[:, 0]
        half = rec.tiling.shape[0] // 2
        assert (rows.max() < half) if rank == 0 else (rows.min() >= half), \
            f"Fig. 13 rank {rank} must stay in its half"
        assert rec.computed_fraction() < 0.5, f"Fig. 13 rank {rank} is not lazy"


def fig13_threads(result) -> None:
    """Fig. 13: each rank's last iteration shows all its (4) threads."""
    for rank, rr in enumerate(result.rank_results):
        assert rank_threads(rr.monitor.records[-1]) == rr.config.nthreads, \
            f"Fig. 13 rank {rank} must show all its threads"


def fig13_mpi_life(result, seq_image: np.ndarray) -> None:
    """Fig. 13, from lazy MPI life on the diagonal dataset, ``--debug M``."""
    fig13_halves(result, seq_image)
    fig13_threads(result)


def abl_overhead(results: dict) -> None:
    """ABL1: charging dispatch overhead makes time over grain a U-curve;
    ``results`` is :func:`measure_abl_overhead`'s."""
    with_t = {g: w for g, (w, _, _) in results.items()}
    best = min(with_t, key=with_t.get)
    assert best not in (4, 128), f"ABL1 no U-curve: best grain {best}"
    none_t = {g: o for g, (_, _, o) in results.items()}
    assert none_t[4] > none_t[16] > none_t[128], "ABL1 finer tiles must cost more overhead"
    no_t = {g: n for g, (_, n, _) in results.items()}
    assert no_t[4] <= no_t[64] and no_t[8] <= no_t[128], \
        "ABL1 without overheads finer tiles must win"


def abl_stealing(out: dict) -> None:
    """ABL2: steal-half steals far less than steal-one but loses on
    irregular work; uniform work steals nothing.  ``out`` is
    :func:`measure_abl_stealing`'s."""
    one_ms, one_steals = out["steal-one"]
    half_ms, half_steals = out["steal-half"]
    assert half_steals < one_steals / 2, "ABL2 steal-half must steal far less"
    assert one_ms < half_ms < 2.0 * one_ms, "ABL2 steal-one must win, by a bounded margin"
    assert out["steal-one (uniform)"][1] == out["steal-half (uniform)"][1] == 0, \
        "ABL2 uniform work must not steal"


def ext_cache(out: dict) -> None:
    """EXT1: blur's halo reuse shows as a hit rate growing with the cache;
    tiny transpose tiles miss more.  ``out`` is
    :func:`measure_ext_cache`'s."""
    hr, mt = out["blur"], out["transpose"]
    assert hr[256] >= hr[32] >= hr[4], f"EXT1 hit rate must grow with the cache: {hr}"
    assert hr[256] > 0.2, "EXT1 halo reuse not visible"
    assert mt[4] > mt[16], "EXT1 tiny transpose tiles must waste write lines"


def ext_gpu(out: dict) -> None:
    """EXT2: divergence grows with the work-group size, the ``ocl`` run
    profiles one event per group and iteration, and mandel's compute
    amortizes the transfers blur pays.  ``out`` is
    :func:`measure_ext_gpu`'s.  Blur's launch is mostly transfer only
    from dim 256 up (42% at 128), so that check runs at a
    ``transfer_dim`` of 256 or more; the ratio holds at every size."""
    penalties = [d for _, d, _ in out["groups"]]
    assert all(b >= a - 0.05 for a, b in zip(penalties, penalties[1:])), \
        f"EXT2 divergence should grow (weakly) with group size: {penalties}"
    assert penalties[-1] > penalties[0], "EXT2 divergence must grow"
    ocl = out["ocl"]
    cfg = ocl.config
    assert {e.kind for e in ocl.trace.events} == {"ocl"}, "EXT2 profiling events"
    groups = (cfg.dim // cfg.tile_w) * (cfg.dim // cfg.tile_h)
    assert len(ocl.trace) == cfg.iterations * groups, "EXT2 one event per group"
    blur, mandel = out["blur_frac"], out["mandel_frac"]
    if out["transfer_dim"] >= 256:
        assert blur > 0.5, "EXT2 the blur stencil must mostly pay the bus"
    assert mandel < blur / 1.5, "EXT2 mandel's compute must amortize the bus"


def wavefront_schedules(makespans: dict) -> None:
    """Wavefront domain: on blocked LU's DAG, static idles on unmet
    dependencies while dynamic keeps pulling ready tasks.  ``makespans``
    maps each schedule to its virtual makespan."""
    speedup = makespans["static"] / makespans["dynamic"]
    assert speedup >= 1.5, f"wavefront: dynamic only {speedup:.2f}x faster than static"
