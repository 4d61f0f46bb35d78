"""FIG4 — tiling windows under the four loop-scheduling policies.

Paper claims (Fig. 4):
  (a) static          — tiles evenly distributed in contiguous chunks;
  (b) dynamic,2       — opportunistic, interleaved assignment;
  (c) nonmonotonic:dynamic — static distribution first, work stealing
                        eventually corrects imbalance;
  (d) guided          — chunk sizes decrease over time.
"""

from _common import fmt_table, report
from claims import fig04_schedules, ownership_changes
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.sched.costmodel import DEFAULT_COST_MODEL
from repro.sched.policies import parse_schedule
from repro.sched.simulator import simulate
from repro.view.ascii import render_tiling

CFG = dict(kernel="mandel", variant="omp_tiled", dim=256, tile_w=32,
           tile_h=32, iterations=1, nthreads=4, monitoring=True, arg="128")

SCHEDULES = ["static", "dynamic,2", "nonmonotonic:dynamic", "guided"]


def run_fig4():
    return {s: run(RunConfig(schedule=s, **CFG)) for s in SCHEDULES}


def test_fig04_schedules(benchmark):
    results = benchmark.pedantic(run_fig4, rounds=1, iterations=1)

    sections = []
    rows = []
    for s in SCHEDULES:
        rec = results[s].monitor.records[0]
        rows.append([
            s,
            ownership_changes(rec.tiling),
            int(rec.stolen.sum()),
            f"{results[s].virtual_time * 1e3:.2f} ms",
        ])
        sections.append(f"-- {s} --\n" + render_tiling(rec.tiling, rec.stolen))
    table = fmt_table(["schedule", "ownership changes", "stolen tiles", "time"], rows)

    # (d) guided chunk-size decay, straight from the simulator
    res = simulate([1e-4] * 64, parse_schedule("guided"), 4, model=DEFAULT_COST_MODEL)
    sizes = res.chunk_sizes()
    text = (
        table
        + "\n\n"
        + "\n\n".join(sections)
        + "\n\nguided chunk sizes in grab order: "
        + " ".join(map(str, sizes))
        + "\n\npaper claims: (a) static = contiguous blocks, (b) dynamic "
        "interleaves, (c) nonmonotonic = static + steals, (d) guided sizes "
        "decrease."
    )
    report("fig04_schedules", text)
    fig04_schedules(results, sizes)
