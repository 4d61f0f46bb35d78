"""Perf-regression harness for the true-parallel ``procs`` backend.

Times a GIL-bound pure-Python kernel (``pymandel``, see
``perfbench/kernels/pymandel.py``) under three executions —
sequential wall-clock reference (1 thread), ``backend="threads"`` and
``backend="procs"`` — and reports the procs speedups as medians of
*paired* ratios, the same same-machine statistic
``bench_engine_hotpath.py`` uses.

On a GIL-bound workload the threads backend cannot beat sequential no
matter how many cores the host has; the procs pool can, because its
workers are real processes writing the frame through shared memory.
That contrast is the backend's acceptance story.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_backend_procs.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_backend_procs.py \
        --out BENCH_procs.json
    PYTHONPATH=src:benchmarks python benchmarks/bench_backend_procs.py \
        --quick --check BENCH_procs.json

``--check`` exits non-zero when, *on a multicore host*, the procs
speedup over sequential falls below the gate (>= 1.5x with 2 workers)
or regresses more than ``--tolerance`` below the committed baseline.
Hosts with a single CPU cannot exhibit real parallelism, so there the
check only validates that the benchmark runs and records numbers; the
JSON carries ``cpu_count`` so a single-core baseline is never used to
gate a multicore run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from _common import fmt_table, gate_skip_reason, perf_gate_main
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.core.kernel import load_kernel_module
from repro.omp.procs import shutdown_pools

REPO_ROOT = Path(__file__).resolve().parent.parent
KERNEL_FILE = REPO_ROOT / "perfbench" / "kernels" / "pymandel.py"
DEFAULT_BASELINE = REPO_ROOT / "BENCH_procs.json"

#: acceptance gate (multicore hosts only): procs with 2 workers must
#: beat the sequential wall-clock reference by at least this factor
WORKERS = 2
GATE_SPEEDUP = 1.5

CONFIG = dict(
    kernel="pymandel", variant="omp_tiled", dim=128, tile_w=32, tile_h=32,
    iterations=2, schedule="dynamic,1",
)


def _timed(backend: str, nthreads: int) -> float:
    cfg = RunConfig(backend=backend, nthreads=nthreads, **CONFIG)
    t0 = time.perf_counter()
    run(cfg)
    return time.perf_counter() - t0


def measure(reps: int) -> dict:
    load_kernel_module(str(KERNEL_FILE))
    # one untimed warmup per execution absorbs first-call costs; the
    # procs warmup also spawns the worker pool, so the timed reps see
    # the persistent-pool steady state the backend is designed around
    for backend, nthreads in (("threads", 1), ("threads", WORKERS), ("procs", WORKERS)):
        _timed(backend, nthreads)
    seq_ts, thr_ts, procs_ts = [], [], []
    for _ in range(reps):
        seq_ts.append(_timed("threads", 1))  # serial wall-clock reference
        thr_ts.append(_timed("threads", WORKERS))
        procs_ts.append(_timed("procs", WORKERS))
    vs_seq = sorted(s / p for s, p in zip(seq_ts, procs_ts))
    vs_thr = sorted(t / p for t, p in zip(thr_ts, procs_ts))
    frames = CONFIG["iterations"]
    return {
        "schema": 1,
        "cpu_count": os.cpu_count() or 1,
        "workers": WORKERS,
        "gate": {"min_speedup_vs_seq": GATE_SPEEDUP, "needs_cpus": 2},
        "results": {
            "fps_seq": round(frames / min(seq_ts), 3),
            "fps_threads": round(frames / min(thr_ts), 3),
            "fps_procs": round(frames / min(procs_ts), 3),
            # median paired ratio: the stable regression statistic
            "speedup_vs_seq": round(vs_seq[len(vs_seq) // 2], 3),
            "speedup_vs_threads": round(vs_thr[len(vs_thr) // 2], 3),
            # best paired ratio: what the machine is capable of (the
            # absolute gate uses this, best-of-N convention)
            "speedup_vs_seq_best": round(vs_seq[-1], 3),
        },
    }


def render(payload: dict) -> str:
    r = payload["results"]
    rows = [[
        f"pymandel-{CONFIG['dim']}-{WORKERS}w", payload["cpu_count"],
        r["fps_seq"], r["fps_threads"], r["fps_procs"],
        f"{r['speedup_vs_seq']:.2f}x", f"{r['speedup_vs_threads']:.2f}x",
    ]]
    return fmt_table(
        ["config", "cpus", "fps seq", "fps thr", "fps procs",
         "procs/seq", "procs/thr"],
        rows,
    )


def check(measured: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Return a list of failures (empty == pass)."""
    skip = gate_skip_reason(measured, needs_cpus=2)
    if skip is not None:
        print(f"procs perf gate skipped: {skip} "
              "(no real parallelism to measure)")
        return []
    failures = []
    got = measured["results"]
    if got["speedup_vs_seq_best"] < GATE_SPEEDUP:
        failures.append(
            f"procs best speedup {got['speedup_vs_seq_best']:.2f}x over "
            f"sequential is below the {GATE_SPEEDUP:.1f}x floor "
            f"({WORKERS} workers, {measured['cpu_count']} CPUs)"
        )
    baseline = json.loads(baseline_path.read_text())
    base_skip = gate_skip_reason(baseline, needs_cpus=2)
    if base_skip is not None:
        print(f"baseline {baseline_path}: {base_skip}; "
              "ratio comparison skipped")
        return failures
    base = baseline["results"]
    floor = base["speedup_vs_seq"] * (1.0 - tolerance)
    if got["speedup_vs_seq"] < floor:
        failures.append(
            f"procs/seq speedup {got['speedup_vs_seq']:.2f}x regressed more "
            f"than {tolerance:.0%} below baseline {base['speedup_vs_seq']:.2f}x"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    return perf_gate_main(
        argv, name="backend_procs", description=__doc__.splitlines()[0],
        measure=measure, render=render, check=check, reps=(7, 3), tolerance=0.30,
        tolerance_help="allowed fractional speedup regression (default 0.30)",
        ok="procs perf check OK vs {check} (tolerance {tolerance:.0%})",
        cleanup=shutdown_pools)


if __name__ == "__main__":
    sys.exit(main())
