"""FIG6 — speedup graphs (paper Fig. 6).

Paper: mandel omp_tiled, dim 1024, 10 iterations, grain 16 and 32,
threads 2..12 step 2, OMP_SCHEDULE in {static, guided, dynamic,2,
nonmonotonic:dynamic}; speedups against the sequential reference time.

Shape claims reproduced:
  * static is the worst curve and plateaus well below linear;
  * guided / dynamic,2 / nonmonotonic:dynamic scale close to linearly
    and stay within a tight band of each other;
  * the ordering is the same at grain 16 and grain 32.

Scaled to dim 512 / max_iter 128 / 5 iterations; the sweep itself runs
through the expTools + easyplot pipeline (work-profile replay) exactly
as a student would drive it.

``pytest benchmarks/bench_fig06_speedup.py --backend procs`` reruns the
same sweep on a real backend (wall-clock times, no work-profile reuse);
the shape assertions then need actual cores to hold, so that mode is
for hardware runs, not CI.
"""

from _common import OUT_DIR, report, repo_path
from claims import DYNAMIC_FAMILY, fig06_speedup
from repro.cli import config_from_args, parse_args
from repro.core.engine import run
from repro.expt.csvdb import column_role
from repro.expt.easyplot import build_plot
from repro.expt.exptools import execute
from repro.expt.plotting import render_svg, render_text

SCHEDULES = ["static", "guided", "dynamic,2", "nonmonotonic:dynamic"]
THREADS = list(range(2, 13, 2))


def run_sweep(csv_path, backend="sim"):
    # sequential reference (refTime in the paper's figure header)
    seq_cfg = config_from_args(parse_args(
        ["--kernel", "mandel", "--variant", "seq", "--size", "512",
         "--iterations", "5", "--arg", "128", "--nb-threads", "1",
         "--backend", backend]), env={})
    ref = run(seq_cfg)
    execute(
        "easypap",
        {"OMP_NUM_THREADS=": THREADS, "OMP_SCHEDULE=": SCHEDULES},
        {"--kernel ": ["mandel"], "--variant ": ["omp_tiled"],
         "--size ": [512], "--grain ": [16, 32], "--iterations ": [5],
         "--arg ": [128], "--backend ": [backend]},
        runs=1,
        csv_path=csv_path,
        # work-profile replay only makes sense on the virtual clock;
        # real backends must execute every point for the times to mean
        # anything
        reuse_work=(backend == "sim"),
    )
    return ref.elapsed * 1e6


def test_fig06_speedup(benchmark, tmp_path, bench_backend):
    csv = tmp_path / "perf_data.csv"
    ref_us = benchmark.pedantic(
        run_sweep, args=(csv, bench_backend), rounds=1, iterations=1)

    from repro.expt.csvdb import read_rows

    rows = read_rows(csv)
    spec = build_plot(rows, x="threads", col="tile_w", speedup=True,
                      ref_time_us=ref_us, kernel="mandel")
    svg_path = OUT_DIR / "fig06_speedup.svg"
    render_svg(spec).save(svg_path)
    text = render_text(spec) + f"\n\nSVG figure: {repo_path(svg_path)}"

    # the legend names schedules only: provenance and measured counters
    # (steals varies under nonmonotonic:dynamic) never split a curve or
    # reach the title
    assert [len(facet.series) for facet in spec.facets] == [len(SCHEDULES)] * 2
    assert all(column_role(c) == "parameter" for c in spec.const_params), spec.header()

    # extract the curves for shape checks
    speedup = {}
    for facet in spec.facets:
        grain = int(facet.title.split("=")[1])
        for s in facet.series:
            sched = s.label.split("=", 1)[1]
            speedup[(grain, sched)] = dict(zip(s.xs, s.ys))

    text += "\n\nwho-wins checks (dynamic-family vs static speedup):\n"
    text += "\n".join(
        f"  grain={g} threads={t} {s}: {speedup[(g, s)][t]:.2f}x "
        f"vs static {speedup[(g, 'static')][t]:.2f}x"
        for g in (16, 32) for t in (8, 12) for s in DYNAMIC_FAMILY
    )
    text += (
        "\n\npaper claims: static worst and plateauing; dynamic-family "
        "near-linear and clustered; same ordering for both grains."
    )
    report("fig06_speedup", text)
    fig06_speedup(speedup)
