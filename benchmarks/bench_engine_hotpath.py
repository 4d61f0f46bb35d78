"""Perf-regression harness for the whole-frame fast path.

Measures wall-clock frames/sec of the perf-mode engine with the
vectorized fast path on (``fastpath="auto"``) and off
(``fastpath="off"``, the per-tile reference) over a fixed
kernel x schedule x ncpus grid, and compares the *speedup ratios*
against the committed baseline ``BENCH_engine.json``.

Speedup (ref_time / fast_time) is a same-machine ratio, so it transfers
across hosts far better than absolute fps — the CI gate therefore
checks ratios, with absolute fps recorded for human inspection only.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py            # measure
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --out BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --quick --check BENCH_engine.json

``--check`` exits non-zero when

* any config's measured speedup falls below ``(1 - tolerance)`` x its
  baseline speedup (default tolerance 30%), or
* the acceptance config (mandel 512^2, static, 8 CPUs, 32x32 tiles)
  drops below 5x — the fast path's reason to exist.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from _common import fmt_table, perf_gate_main
from repro.core.config import RunConfig
from repro.core.engine import run

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_engine.json"

#: the acceptance gate: this config must stay >= GATE_SPEEDUP
GATE_ID = "mandel-512-static-8"
GATE_SPEEDUP = 5.0

#: id -> RunConfig kwargs (fastpath is toggled by the harness)
CONFIGS: dict[str, dict] = {
    "mandel-512-static-8": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=8, schedule="static",
    ),
    "mandel-512-dynamic4-8": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=8, schedule="dynamic,4",
    ),
    "mandel-512-guided-8": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=8, schedule="guided",
    ),
    "mandel-512-static-4": dict(
        kernel="mandel", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=2, nthreads=4, schedule="static",
    ),
    "blur-256-static-8": dict(
        kernel="blur", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static",
    ),
    "life-256-static-8": dict(
        kernel="life", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static", arg="random",
    ),
    "heat-256-static-8": dict(
        kernel="heat", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static",
    ),
    # the perf_frames shape: at 256^2 heat's arrays fit in cache, so the
    # cost of full-frame temporaries barely shows
    "heat-512-static-8": dict(
        kernel="heat", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static",
    ),
    "sandpile-256-static-8": dict(
        kernel="sandpile", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
        iterations=5, nthreads=8, schedule="static",
    ),
}


def _timed(cfg_kwargs: dict, fastpath: str) -> tuple[float, int]:
    t0 = time.perf_counter()
    res = run(RunConfig(fastpath=fastpath, **cfg_kwargs))
    return time.perf_counter() - t0, res.fastpath_regions


def _bench_pair(cfg_kwargs: dict, reps: int) -> dict:
    """Interleaved fast/ref timings; speedup = median of paired ratios.

    The two paths are timed back to back inside each rep so transient
    machine load slows both sides of a ratio together — a median of
    paired ratios is far more stable on shared CI runners than the
    ratio of two independently-taken minima.  One untimed warmup per
    path absorbs first-call costs (allocator growth, ufunc loop
    selection) that would otherwise dominate ``--quick``'s single rep.
    """
    _, fast_regions = _timed(cfg_kwargs, "auto")
    _, ref_regions = _timed(cfg_kwargs, "off")
    fast_ts, ref_ts = [], []
    for _ in range(reps):
        t, _ = _timed(cfg_kwargs, "auto")
        fast_ts.append(t)
        t, _ = _timed(cfg_kwargs, "off")
        ref_ts.append(t)
    ratios = sorted(r / f for f, r in zip(fast_ts, ref_ts))
    frames = cfg_kwargs["iterations"]
    return {
        "fps_fast": round(frames / min(fast_ts), 3),
        "fps_ref": round(frames / min(ref_ts), 3),
        # median paired ratio: the stable regression statistic
        "speedup": round(ratios[len(ratios) // 2], 3),
        # best paired ratio: what the machine is capable of; the
        # absolute >=5x gate uses this (best-of-N convention) so a
        # noisy co-tenant cannot flake an acceptance that holds
        "speedup_best": round(ratios[-1], 3),
        "_fast_regions": fast_regions,
        "_ref_regions": ref_regions,
    }


def measure(reps: int) -> dict:
    """Measure every config; returns the BENCH_engine.json payload."""
    results = {}
    for cid, kwargs in CONFIGS.items():
        if cid == GATE_ID:
            # the gate config carries a hard >=5x floor; never time it
            # with fewer than 5 reps or noise can flake the CI check
            r = max(reps, 5)
        elif kwargs["dim"] <= 256:
            # sub-10ms runs: a single OS hiccup halves one paired ratio,
            # and reps are nearly free at this size — median of >=7
            r = max(reps, 7)
        else:
            r = reps
        entry = _bench_pair(kwargs, r)
        if entry.pop("_fast_regions") == 0:
            raise SystemExit(f"{cid}: fast path did not engage — gating bug?")
        if entry.pop("_ref_regions") != 0:
            raise SystemExit(f"{cid}: reference run used the fast path")
        results[cid] = entry
    return {"schema": 1, "gate": {"id": GATE_ID, "min_speedup": GATE_SPEEDUP},
            "configs": results}


def render(payload: dict) -> str:
    rows = [[cid, r["fps_fast"], r["fps_ref"], f"{r['speedup']:.2f}x",
             f"{r['speedup_best']:.2f}x"]
            for cid, r in payload["configs"].items()]
    return fmt_table(["config", "fps fast", "fps ref", "speedup", "best"], rows)


def check(measured: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Return a list of failures (empty == pass)."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for cid, base in baseline["configs"].items():
        got = measured["configs"].get(cid)
        if got is None:
            failures.append(f"{cid}: present in baseline but not measured")
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if got["speedup"] < floor:
            failures.append(
                f"{cid}: speedup {got['speedup']:.2f}x regressed more than "
                f"{tolerance:.0%} below baseline {base['speedup']:.2f}x"
            )
    gate = measured["configs"].get(GATE_ID)
    if gate is None:
        failures.append(f"gate config {GATE_ID} was not measured")
    elif gate["speedup_best"] < GATE_SPEEDUP:
        failures.append(
            f"{GATE_ID}: best speedup {gate['speedup_best']:.2f}x below "
            f"the {GATE_SPEEDUP:.0f}x acceptance floor"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    return perf_gate_main(
        argv, name="engine_hotpath", description=__doc__.splitlines()[0],
        measure=measure, render=render, check=check, reps=(5, 3), tolerance=0.30,
        tolerance_help="allowed fractional speedup regression (default 0.30)",
        ok="perf check OK vs {check} (tolerance {tolerance:.0%}, "
           f"gate >= {GATE_SPEEDUP:.0f}x)")


if __name__ == "__main__":
    sys.exit(main())
