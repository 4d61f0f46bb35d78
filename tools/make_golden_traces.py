"""Write missing golden ``.evt`` fixtures under ``tests/fixtures/``.

Run from the repository root::

    PYTHONPATH=src python tools/make_golden_traces.py

Only fixtures that do not exist yet are written.  Every existing
fixture is regenerated and compared byte for byte; if any differs the
script names each one and exits 1 without touching it.  To re-pin a
fixture on purpose (an intended scheduling or format change), delete
its file first and run the script again.

The fixtures pin the byte-exact trace output of fully deterministic
runs: scheduler event times come from ``repro.sched.simulator`` over
integer-valued work units, so the files must be identical on every
machine and Python version.  ``tests/test_golden_traces.py`` regenerates
each trace in-process and byte-compares it against the committed file —
any engine change that moves an event, reorders ties or perturbs a
float shows up as a fixture diff that has to be reviewed (and, when
intended, re-pinned by deleting the file and re-running this script).

Kernels are chosen so work values avoid libm entirely (escape-loop
counts, area constants): bit-reproducibility then rests only on IEEE
float arithmetic and CPython's shortest-roundtrip float repr.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.config import RunConfig
from repro.core.engine import run
from repro.trace.format import save_trace

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

#: name -> fully pinned configuration (every field that affects the trace)
GOLDEN_CONFIGS: dict[str, dict] = {
    "mandel_dynamic": dict(
        kernel="mandel", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
        iterations=2, nthreads=3, schedule="dynamic,2", trace=True,
    ),
    "mandel_static": dict(
        kernel="mandel", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
        iterations=2, nthreads=4, schedule="static", trace=True,
    ),
    "life_guided": dict(
        kernel="life", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
        iterations=3, nthreads=4, schedule="guided", arg="diag", trace=True,
    ),
    "blur_stealing": dict(
        kernel="blur", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
        iterations=2, nthreads=3, schedule="nonmonotonic:dynamic", trace=True,
    ),
    # the wavefront-DAG region: pins the policy-aware DAG simulator's
    # event times and the recorded dependency metadata (tid/preds)
    "lu_wavefront_dynamic": dict(
        kernel="lu_wavefront", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
        iterations=1, nthreads=3, schedule="dynamic", trace=True,
    ),
    # parallel_reduce with work stealing, plus the run_on_master region
    "heat_reduce_stealing": dict(
        kernel="heat", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
        iterations=3, nthreads=3, schedule="nonmonotonic:dynamic", trace=True,
    ),
    # task-DAG regions plus a sequential phase
    "cc_tasks": dict(
        kernel="cc", variant="omp_task", dim=32, tile_w=8, tile_h=8,
        iterations=1, nthreads=3, trace=True,
    ),
    # sequential_for regions
    "sandpile_seq": dict(
        kernel="sandpile", variant="seq", dim=32, tile_w=8, tile_h=8,
        iterations=2, nthreads=4, trace=True,
    ),
    # footprint-carrying events: (buf, x, y, w, h) read/write regions
    "blur_footprints": dict(
        kernel="blur", variant="omp_tiled", dim=32, tile_w=8, tile_h=8,
        iterations=2, nthreads=3, trace=True, footprints=True,
    ),
    # 3D slab footprints: (buf, x, y, w, h, z, d) regions
    "heat3d_footprints": dict(
        kernel="heat3d", variant="omp_tiled", dim=16, tile_w=8, tile_h=8,
        iterations=2, nthreads=3, trace=True, footprints=True,
    ),
}


def golden_trace(name: str):
    """Produce the Trace object for one golden configuration."""
    return run(RunConfig(**GOLDEN_CONFIGS[name])).trace


def write_missing(directory: Path = FIXTURE_DIR) -> list[str]:
    """Write absent fixtures; return the names of existing ones that drifted."""
    directory.mkdir(parents=True, exist_ok=True)
    drifted = []
    for name in GOLDEN_CONFIGS:
        path = directory / f"{name}.evt"
        if path.exists():
            fresh = directory / f".{name}.evt.new"
            try:
                save_trace(golden_trace(name), fresh)
                if fresh.read_bytes() != path.read_bytes():
                    drifted.append(name)
            finally:
                fresh.unlink(missing_ok=True)
        else:
            save_trace(golden_trace(name), path)
            print(f"wrote {path}")
    return drifted


if __name__ == "__main__":
    drifted = write_missing()
    for name in drifted:
        print(f"golden fixture {name}.evt differs from a fresh run "
              "(delete it to re-pin)", file=sys.stderr)
    sys.exit(1 if drifted else 0)
