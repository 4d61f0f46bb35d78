"""FIG9 — heat-map mode of the tiling window (paper Fig. 9).

Paper claims: with brightness proportional to task duration,
  (a) mandel: the shape of the Mandelbrot set appears in the heat map;
  (b) blur (optimized): border tiles are brighter (slower) than inner
      tiles.
"""

from _common import OUT_DIR, report, repo_path
from claims import border_inner_ratio, fig09_heatmap, heat_set_correlation
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.view.ascii import render_heatmap
from repro.view.ppm import save_ppm
from repro.view.thumbnail import heat_tile_image


def run_fig9():
    mandel = run(RunConfig(kernel="mandel", variant="omp_tiled", dim=256,
                           tile_w=16, tile_h=16, iterations=1, nthreads=4,
                           monitoring=True, arg="128"))
    blur = run(RunConfig(kernel="blur", variant="omp_tiled_opt", dim=256,
                         tile_w=16, tile_h=16, iterations=1, nthreads=4,
                         monitoring=True))
    return mandel, blur


def test_fig09_heatmap(benchmark):
    mandel, blur = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    mheat = mandel.monitor.records[0].heat
    bheat = blur.monitor.records[0].heat

    corr = heat_set_correlation(mandel)
    ratio = border_inner_ratio(bheat)

    save_ppm(heat_tile_image(mheat), OUT_DIR / "fig09a_mandel_heat.ppm")
    save_ppm(heat_tile_image(bheat), OUT_DIR / "fig09b_blur_heat.ppm")

    text = (
        "(a) mandel heat map (brightness = task duration):\n"
        + render_heatmap(mheat)
        + f"\n    correlation(in-set density, tile duration) = {corr:.3f}"
        + "\n\n(b) blur (optimized) heat map:\n"
        + render_heatmap(bheat)
        + f"\n    border/inner mean duration ratio = {ratio:.2f} "
        + "(work model: 8x vectorization on inner tiles)"
        + f"\n\nPPM images: {repo_path(OUT_DIR)}/fig09a_mandel_heat.ppm, fig09b_blur_heat.ppm"
    )
    report("fig09_heatmap", text)
    fig09_heatmap(mandel, blur)
