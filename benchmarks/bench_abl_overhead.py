"""ABL1 — ablation: dispatch overhead vs tile granularity.

Design-choice study (DESIGN.md): the cost model charges a per-chunk
dispatch overhead, which is what makes the grain trade-off of the
Mandelbrot assignment real — tiny tiles balance load perfectly but pay
scheduler overhead; huge tiles starve the team (paper §III-A: "the size
of tiles depends on the dimension of the image as well as on the
underlying hardware").

Expected shape: U-curve of completion time over tile size for mandel;
monotone increase (pure overhead) for the no-op ``none`` kernel; and a
zero-overhead counterfactual in which the smallest tiles always win.
"""

from _common import fmt_table, report
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.expt.replay import capture_log, replay_log

GRAINS = [4, 8, 16, 32, 64, 128]


def run_abl1():
    results = {}
    for grain in GRAINS:
        cfg = RunConfig(kernel="mandel", variant="omp_tiled", dim=256,
                        tile_w=grain, tile_h=grain, iterations=2, nthreads=4,
                        schedule="dynamic", arg="128")
        log, model, _ = capture_log(cfg)
        with_ovh, _ = replay_log(log, nthreads=4, policy=cfg.policy(), model=model)
        no_ovh, _ = replay_log(log, nthreads=4, policy=cfg.policy(),
                               model=model.zero_overhead())
        none_cfg = cfg.with_(kernel="none")
        none_time = run(none_cfg).virtual_time
        results[grain] = (with_ovh, no_ovh, none_time)
    return results


def test_abl_overhead(benchmark):
    results = benchmark.pedantic(run_abl1, rounds=1, iterations=1)
    rows = [
        [g, f"{w * 1e3:.3f}", f"{n * 1e3:.3f}", f"{(w - n) * 1e3:.3f}",
         f"{o * 1e6:.1f}"]
        for g, (w, n, o) in results.items()
    ]
    table = fmt_table(
        ["grain", "mandel time (ms)", "no-overhead time (ms)",
         "overhead cost (ms)", "none-kernel time (us)"],
        rows,
    )
    with_t = {g: w for g, (w, _, _) in results.items()}
    none_t = {g: o for g, (_, _, o) in results.items()}
    best = min(with_t, key=with_t.get)
    text = (
        table
        + f"\n\nbest grain with overhead model: {best} "
        + "(U-curve: balance vs dispatch cost)"
        + "\nwithout overheads, finer tiles monotonically win "
        + "(counterfactual shows the model is what creates the trade-off)."
    )
    report("abl_overhead", text)

    # U-curve: the optimum is strictly inside the sweep
    assert best not in (GRAINS[0], GRAINS[-1])
    # pure-overhead probe: finer tiles strictly more expensive
    assert none_t[4] > none_t[16] > none_t[128]
    # counterfactual: without overheads, 4 <= 8 <= ... (no U-curve)
    no_t = {g: n for g, (_, n, _) in results.items()}
    assert no_t[4] <= no_t[64] and no_t[8] <= no_t[128]
