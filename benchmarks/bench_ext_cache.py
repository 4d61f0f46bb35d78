"""EXT1 — extension: per-task cache counters (paper §V future work).

The paper plans to "integrate per-task cache usage information using the
PAPI library" into EASYVIEW.  Our LRU model replays each task's memory
accesses; this bench explores two textbook effects:

  * blur: neighbouring tiles share halo rows, so a warm cache serves
    part of every task's reads — hit rate grows with cache size;
  * transpose: writes are strided; smaller tiles issue more (and more
    scattered) write ranges per pixel, so the per-pixel miss cost rises
    as tiles shrink.
"""

from _common import fmt_table, report
from claims import ext_cache, measure_ext_cache


def test_ext_cache(benchmark):
    out = benchmark.pedantic(measure_ext_cache, args=(128,), rounds=1, iterations=1)
    blur_rows = [[f"{kb} KiB", f"{hr * 100:.1f}%"] for kb, hr in out["blur"].items()]
    tr_rows = [[g, f"{m:.3f}"] for g, m in out["transpose"].items()]
    text = (
        "blur (16x16 tiles): cache hit rate vs cache size\n"
        + fmt_table(["cache", "hit rate"], blur_rows)
        + "\n\ntranspose (32 KiB cache): line misses per pixel vs tile size\n"
        + fmt_table(["grain", "misses/pixel"], tr_rows)
        + "\n\nper-task counters are attached to every trace event "
        "(event.extra['cache']), ready for EASYVIEW display."
    )
    report("ext_cache", text)
    ext_cache(out)
