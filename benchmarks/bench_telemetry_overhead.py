"""Perf-regression harness for the telemetry bus (ISSUE-5 gate).

The unified telemetry pipeline must be effectively free: a traced run
may cost at most 5% more wall-clock than the identical uninstrumented
run.  This harness times the GIL-bound ``pymandel`` kernel (see
``perfbench/kernels/pymandel.py``) plain vs ``trace=True`` on both the
``sim`` channel (in-process bus dispatch into the TraceRecorder) and the
``procs`` channel (workers return ``(pos, start, end)`` triples and
their stolen ranges in the region reply, the master decodes them into
the timeline), and
reports the overhead as medians of *paired* ratios — the same
same-machine statistic the other perf harnesses use.  The footprint
path (``--check-races``-grade collection, returned in the same reply)
is measured and reported too, but not gated: footprints intercept
every buffer access, which is honest observability work, not bus
overhead.

``pymandel`` has no whole-frame fast path, so every case here runs the
per-tile bodies and the gate covers only the per-tile telemetry path.
A traced run of a kernel that does take the frame (mandel 256²: about
1.16x its plain run) is not gated by this harness.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_telemetry_overhead.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_telemetry_overhead.py \
        --out BENCH_telemetry.json
    PYTHONPATH=src:benchmarks python benchmarks/bench_telemetry_overhead.py \
        --quick --check BENCH_telemetry.json

``--check`` exits non-zero when a gated overhead ratio exceeds the
1.05x ceiling or regresses more than ``--tolerance`` (additive) above
the committed baseline.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from _common import fmt_table, perf_gate_main
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.core.kernel import load_kernel_module
from repro.omp.procs import shutdown_pools

REPO_ROOT = Path(__file__).resolve().parent.parent
KERNEL_FILE = REPO_ROOT / "perfbench" / "kernels" / "pymandel.py"
DEFAULT_BASELINE = REPO_ROOT / "BENCH_telemetry.json"

#: instrumentation-overhead ceiling: traced / plain, median paired ratio
GATE_RATIO = 1.05
WORKERS = 2

CONFIG = dict(
    kernel="pymandel", variant="omp_tiled", dim=128, tile_w=32, tile_h=32,
    iterations=2, schedule="dynamic,1",
)

#: (name, gated) — each case is timed plain vs instrumented
CASES = [
    ("sim_trace", True, dict(backend="sim"), dict(trace=True)),
    ("procs_trace", True, dict(backend="procs", nthreads=WORKERS), dict(trace=True)),
    ("procs_footprints", False, dict(backend="procs", nthreads=WORKERS),
     dict(trace=True, footprints=True)),
]


def _timed(extra: dict) -> float:
    cfg = RunConfig(**CONFIG, **extra)
    t0 = time.perf_counter()
    run(cfg)
    return time.perf_counter() - t0


def measure(reps: int) -> dict:
    load_kernel_module(str(KERNEL_FILE))
    results = {}
    for name, gated, base_kw, instr_kw in CASES:
        plain_kw = dict(base_kw)
        traced_kw = {**base_kw, **instr_kw}
        _timed(plain_kw)  # warmup (spawns the procs pool where relevant)
        _timed(traced_kw)
        ratios = []
        plain_ts, traced_ts = [], []
        for _ in range(reps):
            p = _timed(plain_kw)
            t = _timed(traced_kw)
            plain_ts.append(p)
            traced_ts.append(t)
            ratios.append(t / p)
        ratios.sort()
        results[name] = {
            "gated": gated,
            "plain_s": round(min(plain_ts), 4),
            "instrumented_s": round(min(traced_ts), 4),
            # median paired ratio: the stable regression statistic
            "overhead_ratio": round(ratios[len(ratios) // 2], 4),
            "overhead_ratio_best": round(ratios[0], 4),
        }
    return {
        "schema": 1,
        "cpu_count": os.cpu_count() or 1,
        "workers": WORKERS,
        "gate": {"max_overhead_ratio": GATE_RATIO},
        "results": results,
    }


def render(payload: dict) -> str:
    rows = []
    for name, r in payload["results"].items():
        rows.append([
            name, "yes" if r["gated"] else "no",
            f"{r['plain_s']:.4f}", f"{r['instrumented_s']:.4f}",
            f"{r['overhead_ratio']:.3f}x",
            f"{(r['overhead_ratio'] - 1.0) * 100:+.1f}%",
        ])
    return fmt_table(
        ["case", "gated", "plain s", "instr s", "ratio", "overhead"], rows
    )


def check(measured: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Return a list of failures (empty == pass)."""
    failures = []
    for name, r in measured["results"].items():
        if not r["gated"]:
            continue
        # absolute ceiling on the best paired ratio (best-of-N, same
        # convention as bench_backend_procs): what the machine is capable
        # of must be within 5%, whatever the noise on individual reps
        if r["overhead_ratio_best"] > GATE_RATIO:
            failures.append(
                f"{name}: instrumentation overhead {r['overhead_ratio_best']:.3f}x "
                f"(best of N) exceeds the {GATE_RATIO:.2f}x ceiling"
            )
    baseline = json.loads(baseline_path.read_text())
    for name, r in measured["results"].items():
        base = baseline["results"].get(name)
        if base is None or not r["gated"]:
            continue
        # a sub-1.0 baseline ratio is measurement luck, not a bar to hold
        # future runs to; the comparison floor is "no overhead at all"
        ceiling = max(base["overhead_ratio"], 1.0) + tolerance
        if r["overhead_ratio"] > ceiling:
            failures.append(
                f"{name}: overhead {r['overhead_ratio']:.3f}x regressed more "
                f"than +{tolerance:.2f} above baseline {base['overhead_ratio']:.3f}x"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    return perf_gate_main(
        argv, name="telemetry_overhead", description=__doc__.splitlines()[0],
        measure=measure, render=render, check=check, reps=(7, 3), tolerance=0.05,
        tolerance_help="allowed additive ratio regression above baseline (default 0.05)",
        ok="telemetry overhead check OK vs {check} "
           f"(ceiling {GATE_RATIO:.2f}x, tolerance +{{tolerance:.2f}})",
        cleanup=shutdown_pools)


if __name__ == "__main__":
    sys.exit(main())
