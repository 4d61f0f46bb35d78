"""FIG11/12 — task dependencies and the wave of tasks (paper Figs. 11–12).

Paper claims:
  * the down-right phase of connected components runs as OpenMP tasks
    with ``depend(in: tile[i-1][j], tile[i][j-1]) depend(inout: tile[i][j])``;
  * EASYVIEW visualizes a *wave of tasks moving forward* (anti-diagonal
    wavefront, Fig. 12);
  * over-constraining dependencies (the common student bug) serializes
    execution — visible immediately in the Gantt chart.
"""


from _common import OUT_DIR, fmt_table, report, repo_path
from claims import chained_makespan, fig12_taskwave, task_waves
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.trace.gantt import GanttChart

CFG = RunConfig(kernel="cc", variant="omp_task", dim=256, tile_w=32,
                tile_h=32, iterations=8, nthreads=8, trace=True, seed=4)


def run_fig12():
    return run(CFG)


def test_fig12_taskwave(benchmark):
    result = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    waves = task_waves(result.trace, CFG.tile_w)
    rows = [[d, len(waves[d]), f"{min(waves[d]) * 1e6:.1f}", f"{max(waves[d]) * 1e6:.1f}"]
            for d in sorted(waves)]
    table = fmt_table(["anti-diagonal", "tasks", "first start (us)",
                       "last start (us)"], rows)

    serial = chained_makespan()
    svg = GanttChart(result.trace, 1, 1).to_svg().save(OUT_DIR / "fig12_wave.svg")
    text = (
        "down-right phase, iteration 1 (8x8 tile grid, 8 CPUs):\n"
        + table
        + f"\n\nover-constrained version (student bug): 64 unit tasks on 8 "
        + f"CPUs -> makespan {serial:.0f} units (fully serialized)"
        + f"\nGantt SVG of the wave: {repo_path(svg)}"
    )
    report("fig12_taskwave", text)
    fig12_taskwave(result, serial)
