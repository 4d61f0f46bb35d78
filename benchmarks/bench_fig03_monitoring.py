"""FIG3 — monitoring windows: load imbalance of static mandel (paper Fig. 3).

Paper claim: with ``omp_tiled`` mandel under ``schedule(static)``, the
Activity Monitor shows a clear load imbalance between CPUs (the black
in-set area concentrates work on a few threads), and the idleness
history grows; the Tiling window shows contiguous per-thread blocks.
"""


from _common import fmt_table, report
from claims import fig03_monitoring
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.view.ascii import render_activity, render_idleness_history, render_tiling

CFG = dict(kernel="mandel", variant="omp_tiled", dim=256, tile_w=16,
           tile_h=16, iterations=4, nthreads=4, monitoring=True, arg="128")


def run_fig3():
    static = run(RunConfig(schedule="static", **CFG))
    dynamic = run(RunConfig(schedule="dynamic", **CFG))
    return static, dynamic


def test_fig03_monitoring(benchmark):
    static, dynamic = benchmark.pedantic(run_fig3, rounds=1, iterations=1)

    rows = []
    for label, res in [("static", static), ("dynamic", dynamic)]:
        rec = res.monitor.records[-1]
        loads = rec.load_percent()
        rows.append([
            label,
            f"{min(loads):.1f}%",
            f"{max(loads):.1f}%",
            f"{res.monitor.load_imbalance():.2f}",
            f"{res.monitor.cumulated_idleness * 1e3:.2f} ms",
            f"{res.virtual_time * 1e3:.2f} ms",
        ])
    table = fmt_table(
        ["schedule", "min load", "max load", "imbalance", "cum. idleness", "time"],
        rows,
    )
    rec = static.monitor.records[-1]
    text = (
        table
        + "\n\nTiling window (static, last iteration):\n"
        + render_tiling(rec.tiling)
        + "\n\nActivity monitor (static):\n"
        + render_activity(rec)
        + "\n"
        + render_idleness_history(static.monitor.idleness_history)
        + "\n\npaper claim: static distribution is inappropriate for mandel "
        "(load imbalance); measured above."
    )
    report("fig03_monitoring", text)
    fig03_monitoring(static, dynamic)
