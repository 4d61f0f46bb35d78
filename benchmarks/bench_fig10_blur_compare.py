"""FIG10 + XBLUR — trace comparison of the two blur versions (paper Fig. 10).

Paper claims (§III-B, Fig. 10):
  * removing conditional code from inner tiles makes the kernel ~3x
    faster overall ("iteration 3 with the basic version is as long as
    iterations [7..9] with the optimized version");
  * many tasks are ~10x faster — inner tiles, thanks to compiler
    auto-vectorization (x8 on AVX2);
  * both versions compute identical images;
  * under ``nonmonotonic:dynamic`` a CPU's tiles stay "mostly regrouped
    in a single area" (better locality than ``dynamic``).

Our inner tiles charge VECTOR_PIXEL_WORK (x8 cheaper) in the simulator;
the benchmark additionally measures the *real* Python scalar-vs-
vectorized gap that motivates those constants.
"""

from _common import OUT_DIR, report, repo_path
from claims import fig10_blur_compare, fig10_locality, vectorization_gap
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.trace.compare import TraceComparison
from repro.trace.coverage import locality_score

CFG = dict(kernel="blur", dim=512, tile_w=32, tile_h=32, iterations=3,
           nthreads=4, trace=True, seed=11)


def run_fig10():
    basic = run(RunConfig(variant="omp_tiled", **CFG))
    opt = run(RunConfig(variant="omp_tiled_opt", **CFG))
    nonmonotonic = run(RunConfig(variant="omp_tiled", schedule="nonmonotonic:dynamic", **CFG))
    return basic, opt, nonmonotonic


def test_fig10_blur_compare(benchmark):
    basic, opt, nonmonotonic = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    cmp_ = TraceComparison(basic.trace, opt.trace)
    overall = cmp_.overall_factor()
    med, p90 = cmp_.speedup_quantiles()
    frac8 = cmp_.faster_tile_fraction(7.5)
    svg_path = cmp_.to_svg().save(OUT_DIR / "fig10_compare.svg")

    real_gap = vectorization_gap()

    text = (
        cmp_.report()
        + f"\n\nmeasured: overall x{overall:.2f} (paper: ~3x); "
        + f"median tile speedup x{med:.2f}, p90 x{p90:.2f} (paper: ~10x on "
        + f"inner tiles); {frac8 * 100:.1f}% of tiles >= 7.5x faster "
        + "(inner fraction of a 16x16 grid: 76.6%)"
        + f"\n\nreal scalar-vs-vectorized gap on one 32x32 tile: x{real_gap:.1f}"
        + " (the auto-vectorization mechanism, measured in Python)"
        + "\n\nlocality score (basic blur, lower = CPUs keep their tiles "
        + f"regrouped): nonmonotonic:dynamic {locality_score(nonmonotonic.trace):.2f} "
        + f"vs dynamic {locality_score(basic.trace):.2f}"
        + f"\n\nstacked-Gantt SVG: {repo_path(svg_path)}"
    )
    report("fig10_blur_compare", text)
    fig10_blur_compare(basic, opt, real_gap)
    fig10_locality(nonmonotonic, basic)
