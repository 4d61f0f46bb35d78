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
from claims import abl_overhead, measure_abl_overhead


def test_abl_overhead(benchmark):
    results = benchmark.pedantic(measure_abl_overhead, args=(256, 2), rounds=1,
                                 iterations=1)
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
    best = min(with_t, key=with_t.get)
    text = (
        table
        + f"\n\nbest grain with overhead model: {best} "
        + "(U-curve: balance vs dispatch cost)"
        + "\nwithout overheads, finer tiles monotonically win "
        + "(counterfactual shows the model is what creates the trade-off)."
    )
    report("abl_overhead", text)
    abl_overhead(results)
