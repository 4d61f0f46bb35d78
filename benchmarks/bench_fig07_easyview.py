"""FIG7 — EASYVIEW interactive trace exploration (paper Fig. 7).

Paper: the Gantt chart shows per-CPU task sequences for a selectable
iteration range; hovering a task shows its duration; tasks under the
mouse's x position get their tile highlighted on the image thumbnail
(linking computations to data); horizontal mode selects a CPU.

We regenerate the artifact: record a mandel trace, build the Gantt,
exercise the two mouse-query modes, and emit the SVG with hover
tooltips.
"""

from _common import OUT_DIR, report, repo_path
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.trace.gantt import GanttChart
from repro.view.thumbnail import thumbnail

CFG = RunConfig(kernel="mandel", variant="omp_tiled", dim=256, tile_w=32,
                tile_h=32, iterations=10, nthreads=4, schedule="dynamic",
                trace=True, arg="128")


def run_fig7():
    return run(CFG)


def test_fig07_easyview(benchmark):
    result = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    trace = result.trace

    # iteration-range selection (the paper screenshots show ranges [7..9])
    chart = GanttChart(trace, 7, 9)
    mid = (chart.t0 + chart.t1) / 2

    # vertical mouse mode: tasks at time -> highlighted tiles
    tiles = chart.tiles_at_time(mid)
    # horizontal mouse mode: one CPU's tasks + the pop-up duration bubble
    cpu0 = chart.cpu_tasks(0)
    bubble = chart.task_at(0, mid)

    svg_path = chart.to_svg().save(OUT_DIR / "fig07_gantt.svg")
    thumb = thumbnail(result.image, 64)

    text = (
        f"trace: {len(trace)} events, iterations {trace.iterations[0]}..."
        f"{trace.iterations[-1]}\n"
        f"selected range [7..9]: {len(chart.events)} tasks, span "
        f"{chart.span * 1e3:.3f} ms\n"
        f"vertical mouse @ t={mid * 1e3:.3f} ms -> {len(tiles)} highlighted "
        f"tiles: {tiles}\n"
        f"horizontal mouse on CPU 0 -> {len(cpu0)} tasks; bubble: "
        + (f"{bubble.duration * 1e6:.1f} us tile(x={bubble.x}, y={bubble.y})"
           if bubble else "(idle)")
        + f"\nthumbnail: {thumb.shape[0]}x{thumb.shape[1]} reduced surface\n"
        + f"SVG Gantt (hover = duration bubble): {repo_path(svg_path)}\n\n"
        + chart.to_ascii(width=80)
    )
    report("fig07_easyview", text)

    assert len(chart.events) == 3 * 64  # 3 iterations x 8x8 tiles
    assert 1 <= len(tiles) <= CFG.nthreads  # one task per busy CPU at mid
    assert len(cpu0) > 0
    svg = svg_path.read_text()
    assert "<title>" in svg and "tile(" in svg
