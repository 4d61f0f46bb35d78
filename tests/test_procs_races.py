"""``--check-races`` parity on ``backend="procs"``.

The PR-4 rejection is lifted: worker-side footprints flow back to the
master over the telemetry ring, so the happens-before detector reaches
the same verdict on procs traces as on sim/threads ones — flagging the
seeded-buggy example and staying clean on the corrected variant.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analyze import check_races
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.core.kernel import load_kernel_module
from repro.omp import procs as procs_mod

EXAMPLES = Path(__file__).parent.parent / "examples"

NW = 2


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_at_end():
    yield
    procs_mod.shutdown_pools()


def race_config(backend: str, kernel: str) -> RunConfig:
    return RunConfig(
        kernel=kernel, variant="omp_tiled", dim=64, tile_w=16, tile_h=16,
        iterations=1, nthreads=NW, schedule="dynamic", backend=backend,
        seed=42, trace=True, footprints=True,
    )


def verdict(backend: str, kernel: str):
    r = run(race_config(backend, kernel))
    assert r.dropped_events == 0  # full-fidelity footprints for the verdict
    return check_races(r.trace)


def test_seeded_buggy_same_verdict_as_sim():
    load_kernel_module(str(EXAMPLES / "buggy_blur_writes_cur.py"))
    results = {b: verdict(b, "blur_buggy") for b in ("sim", "procs")}
    assert not results["sim"].clean  # sanity: the bug is seeded
    assert not results["procs"].clean
    for key in ("tasks_checked", "regions_checked"):
        assert getattr(results["procs"], key) == getattr(results["sim"], key)

    def race_keys(rr):
        return sorted(
            (r.kind, r.buf, (r.a.event.x, r.a.event.y), (r.b.event.x, r.b.event.y))
            for r in rr.races
        )

    assert race_keys(results["procs"]) == race_keys(results["sim"])


def test_correct_variant_clean_on_procs():
    rr = verdict("procs", "blur")
    assert rr.clean
    assert rr.tasks_checked == 16  # 64/16 grid actually analyzed, not vacuous


def test_threads_backend_same_verdict():
    load_kernel_module(str(EXAMPLES / "buggy_blur_writes_cur.py"))
    rr = verdict("threads", "blur_buggy")
    assert not rr.clean
    assert verdict("threads", "blur").clean


def test_cli_check_races_on_procs(capsys):
    """End-to-end: ``easypap --check-races`` exits 1 on the buggy kernel
    (the static proof fails it before the pool runs anything; the
    procs dynamic verdict is compared above) and 0 on the corrected
    one, with backend=procs."""
    from repro.cli import main

    buggy = str(EXAMPLES / "buggy_blur_writes_cur.py")
    base = ["-k", "blur_buggy", "-v", "omp_tiled", "--load", buggy,
            "-s", "64", "-ts", "16", "-i", "1", "--nb-threads", str(NW),
            "--backend", "procs", "--check-races"]
    assert main(base) == 1
    out = capsys.readouterr().out
    assert "read-write race on buffer 'cur'" in out
    ok = ["-k", "blur", "-v", "omp_tiled", "-s", "64", "-ts", "16", "-i", "1",
          "--nb-threads", str(NW), "--backend", "procs", "--check-races"]
    assert main(ok) == 0
    assert "no data races" in capsys.readouterr().out
