"""ABL2 — ablation: stealing granularity in nonmonotonic:dynamic.

Design-choice study (DESIGN.md): a thief can take one chunk from the
victim's tail (default, LLVM-like) or half the victim's remaining block
(``steal_half``).  Expected shape: steal-half performs comparably on
imbalanced work while issuing far fewer (more expensive) steal
operations; on balanced work neither steals at all.
"""

from _common import fmt_table, report
from claims import abl_stealing, measure_abl_stealing


def test_abl_stealing(benchmark):
    out = benchmark.pedantic(measure_abl_stealing, args=(256,), rounds=1, iterations=1)
    rows = [[k, f"{ms * 1e3:.3f}", st] for k, (ms, st) in out.items()]
    table = fmt_table(["configuration", "makespan (ms)", "steals"], rows)
    report(
        "abl_stealing",
        table + "\n\nfinding: steal-half issues far fewer steal operations "
        "but loses makespan on mandel — a stolen half-block executes "
        "atomically (it cannot be re-stolen), so a thief that grabs a "
        "heavy half becomes the tail bottleneck.  Steal-one keeps the "
        "tail fine-grained, which is why LLVM-style runtimes steal small."
        "\nOn uniform work neither configuration steals at all.",
    )
    abl_stealing(out)
