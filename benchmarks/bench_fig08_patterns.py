"""FIG8 — dynamic scheduling patterns in the tiling window (paper Fig. 8).

Paper claims, for mandel under OpenMP dynamic scheduling of small tiles:

  Pattern 1 — horizontal stripes of one color (plus some two-color
  alternations): one or two threads compute runs of cheap tiles while
  the others are stuck on heavy in-set tiles.

  Pattern 2 — quasi-perfect cyclic color distribution where all tiles
  cost the same.
"""

from _common import report
from claims import fig08_patterns, longest_run, ownership_changes, uniform_row
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.view.ascii import render_tiling

CFG = RunConfig(kernel="mandel", variant="omp_tiled", dim=256, tile_w=8,
                tile_h=8, iterations=2, nthreads=4, schedule="dynamic",
                monitoring=True, arg="128")


def run_fig8():
    return run(CFG)


def test_fig08_patterns(benchmark):
    result = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    rec = result.monitor.records[-1]
    tiling = rec.tiling
    stripe_len = max(longest_run(row) for row in tiling.tolist())
    row = uniform_row(rec)
    owners = tiling[row].tolist()

    text = (
        "tiling window (dynamic, 8x8 tiles, last iteration):\n"
        + render_tiling(tiling)
        + f"\n\nPattern 1 (stripes): longest same-color run = {stripe_len} tiles"
        + f"\nPattern 2 (cyclic): most uniform-cost row = {row}, owners {owners}, "
        + f"{ownership_changes(owners)}/{len(owners) - 1} ownership changes"
        + "\n\npaper: stripes where tiles are cheap (others busy in the set);"
        + " cyclic distribution where costs are uniform."
    )
    report("fig08_patterns", text)
    fig08_patterns(rec)
