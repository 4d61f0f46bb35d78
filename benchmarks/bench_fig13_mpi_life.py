"""FIG13 — MPI+OpenMP lazy Game of Life in debug mode (paper Fig. 13).

Paper claims, for
``easypap --kernel life --variant mpi_omp --mpirun "-np 2" --monitoring --debug M``
on the sparse diagonal-planers dataset:
  * every MPI process pops its own monitoring windows (debug M);
  * each process contains 4 threads and works on half of the image;
  * only tiles located near the diagonals are computed (lazy evaluation).

Run as a script, this file is also the perf gate for the real-process
MPI substrate: it times the same kernel at ``-np 2`` against ``-np 1``
(both on ``mpi_backend="procs"``) and reports the speedup as a median
of paired ratios.  Ranks are real processes, so on a multicore host
two ranks must beat one; a single-CPU host cannot show real
parallelism, so there the check only validates that the numbers get
recorded (the JSON carries ``cpu_count`` so a single-core baseline
never gates a multicore run).

The gated runs step each band with the per-tile bodies
(``fastpath="off"``): that is the compute whose halving the gate was
set for.  A rank's whole-band fast path makes a 512² band step so
cheap that two ranks barely beat one (about 1.0x on a 2-vCPU host),
so its np2/np1 ratio is measured and reported next to the gated one,
never gated.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_fig13_mpi_life.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_fig13_mpi_life.py \
        --out BENCH_mpi.json
    PYTHONPATH=src:benchmarks python benchmarks/bench_fig13_mpi_life.py \
        --quick --check BENCH_mpi.json
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from _common import fmt_table, gate_skip_reason, perf_gate_main, report
from claims import fig13_mpi_life, rank_threads
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.mpi.substrate import shutdown_mpi_pools
from repro.view.ascii import render_tiling

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_mpi.json"

#: acceptance gate (multicore hosts only): two rank processes must beat
#: one on wall-clock by at least this factor (best paired ratio)
GATE_SPEEDUP = 1.1

#: the timed workload is the *dense* dataset: every tile dirty, so the
#: band split halves each rank's compute and the ratio measures the
#: substrate, not the dataset's sparsity pattern; the gated runs take
#: the per-tile bodies, the reported ones the whole-band fast path
TIMED = dict(kernel="life", variant="mpi_omp", dim=512, tile_w=32, tile_h=32,
             iterations=8, nthreads=4, arg="random", seed=42,
             mpi_backend="procs", fastpath="off")

CFG = RunConfig(kernel="life", variant="mpi_omp", dim=256, tile_w=16,
                tile_h=16, iterations=8, nthreads=4, arg="diag", mpi_np=2,
                monitoring=True, debug="M")


def run_fig13():
    return run(CFG)


def test_fig13_mpi_life(benchmark):
    result = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    ref = run(RunConfig(kernel="life", variant="seq", dim=256, tile_w=16,
                        tile_h=16, iterations=8, arg="diag"))

    rows = []
    tilings = []
    for rank, rr in enumerate(result.rank_results):
        rec = rr.monitor.records[-1]
        computed = np.argwhere(rec.tiling >= 0)
        comm = rr.context.mpi.comm.stats
        rows.append([
            rank,
            rank_threads(rec),
            f"rows {computed[:, 0].min()}..{computed[:, 0].max()}",
            f"{rec.computed_fraction() * 100:.1f}%",
            comm.messages_sent,
            comm.bytes_sent,
        ])
        tilings.append((rank, rec))
    table = fmt_table(
        ["rank", "threads seen", "tile rows computed", "tiles computed",
         "msgs sent", "bytes sent"],
        rows,
    )
    maps = "\n\n".join(
        f"rank {rank} tiling window ('.' = skipped by lazy evaluation):\n"
        + render_tiling(rec.tiling)
        for rank, rec in tilings
    )
    text = (
        table + "\n\n" + maps
        + "\n\npaper: each process has 4 threads, works on half the image, "
        "and only diagonal tiles are computed."
    )
    report("fig13_mpi_life", text)
    fig13_mpi_life(result, ref.image)


# --------------------------------------------------------------------------
# perf gate: -np 2 vs -np 1 on the process substrate
# --------------------------------------------------------------------------


def _timed(np_: int, fastpath: str) -> float:
    cfg = RunConfig(mpi_np=np_, **{**TIMED, "fastpath": fastpath})
    t0 = time.perf_counter()
    run(cfg)
    return time.perf_counter() - t0


def _paired(reps: int, fastpath: str) -> tuple[list[float], list[float], list[float]]:
    """``reps`` alternating np1/np2 timings and their sorted paired
    ratios; warmups spawn the persistent rank pools first, so the timed
    reps see the steady state the substrate is designed around."""
    _timed(1, fastpath)
    _timed(2, fastpath)
    np1_ts, np2_ts = [], []
    for _ in range(reps):
        np1_ts.append(_timed(1, fastpath))
        np2_ts.append(_timed(2, fastpath))
    return np1_ts, np2_ts, sorted(a / b for a, b in zip(np1_ts, np2_ts))


def measure(reps: int) -> dict:
    np1_ts, np2_ts, ratios = _paired(reps, TIMED["fastpath"])
    fast1_ts, fast2_ts, fast_ratios = _paired(reps, "auto")
    frames = TIMED["iterations"]
    return {
        "schema": 1,
        "cpu_count": os.cpu_count() or 1,
        "gate": {"min_speedup_np2": GATE_SPEEDUP, "needs_cpus": 2},
        "results": {
            "fps_np1": round(frames / min(np1_ts), 3),
            "fps_np2": round(frames / min(np2_ts), 3),
            # median paired ratio: the stable regression statistic
            "speedup_np2": round(ratios[len(ratios) // 2], 3),
            # best paired ratio: what the machine is capable of (the
            # absolute gate uses this, best-of-N convention)
            "speedup_np2_best": round(ratios[-1], 3),
        },
        # the whole-band fast path: reported, not gated
        "frames": {
            "fps_np1": round(frames / min(fast1_ts), 3),
            "fps_np2": round(frames / min(fast2_ts), 3),
            "speedup_np2": round(fast_ratios[len(fast_ratios) // 2], 3),
        },
    }


def render(payload: dict) -> str:
    config = f"life-{TIMED['dim']}-random"
    rows = [
        [config, step, payload["cpu_count"], r["fps_np1"], r["fps_np2"],
         f"{r['speedup_np2']:.2f}x"]
        for step, r in [("per-tile (gated)", payload["results"]),
                        ("whole band", payload["frames"])]
    ]
    return fmt_table(
        ["config", "rank step", "cpus", "fps np1", "fps np2", "np2/np1"], rows,
    )


def check(measured: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Return a list of failures (empty == pass)."""
    skip = gate_skip_reason(measured, needs_cpus=2)
    if skip is not None:
        print(f"mpi perf gate skipped: {skip} "
              "(no real parallelism to measure)")
        return []
    failures = []
    got = measured["results"]
    if got["speedup_np2_best"] < GATE_SPEEDUP:
        failures.append(
            f"np2 best speedup {got['speedup_np2_best']:.2f}x over np1 is "
            f"below the {GATE_SPEEDUP:.1f}x floor "
            f"({measured['cpu_count']} CPUs)"
        )
    baseline = json.loads(baseline_path.read_text())
    base_skip = gate_skip_reason(baseline, needs_cpus=2)
    if base_skip is not None:
        print(f"baseline {baseline_path}: {base_skip}; "
              "ratio comparison skipped")
        return failures
    base = baseline["results"]
    floor = base["speedup_np2"] * (1.0 - tolerance)
    if got["speedup_np2"] < floor:
        failures.append(
            f"np2/np1 speedup {got['speedup_np2']:.2f}x regressed more "
            f"than {tolerance:.0%} below baseline {base['speedup_np2']:.2f}x"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    return perf_gate_main(
        argv, name="fig13_mpi_perf",
        description="perf gate: MPI life at -np 2 vs -np 1 (procs substrate)",
        measure=measure, render=render, check=check, reps=(7, 3), tolerance=0.30,
        tolerance_help="allowed fractional speedup regression (default 0.30)",
        ok="mpi perf check OK vs {check} (tolerance {tolerance:.0%})",
        cleanup=shutdown_mpi_pools)


if __name__ == "__main__":
    sys.exit(main())
