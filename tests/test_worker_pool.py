"""The persistent worker-pool lifecycle, held for both pool kinds.

The procs tile pool and the MPI rank pool share one lifecycle
(:mod:`repro.util.workerpool`): a pool persists across runs, a worker
SIGKILLed between runs is replaced on next use, and a process that
exits without shutting its pools down leaves no ``/dev/shm`` entry
behind.  Rank programs live at module level (ranks import them).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.engine import run
from repro.mpi.substrate import get_mpi_pool, run_world_procs, shutdown_mpi_pools
from repro.omp.procs import get_pool, shutdown_pools
from repro.util.workerpool import live_blocks

from .conftest import make_config

REPO_ROOT = Path(__file__).resolve().parent.parent

NW = 2


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_at_end():
    yield
    shutdown_pools()
    shutdown_mpi_pools()


def _prog_rank_sum(comm, rank):
    return comm.allreduce(rank, op=lambda a, b: a + b)


def _run_procs():
    res = run(make_config(kernel="invert", backend="procs", nthreads=NW, iterations=1))
    assert res.completed_iterations == 1


def _run_mpi():
    assert run_world_procs(NW, _prog_rank_sum) == [1, 1]


#: pool kind -> (registry lookup, one run on that pool)
KINDS = {"procs": (get_pool, _run_procs), "mpi": (get_mpi_pool, _run_mpi)}


@pytest.mark.parametrize("kind", KINDS)
def test_pool_persists_across_runs(kind):
    get, run_once = KINDS[kind]
    run_once()
    pool = get(NW)
    pids = pool.worker_pids()
    run_once()
    assert get(NW) is pool
    assert pool.worker_pids() == pids
    assert pool.healthy()


@pytest.mark.parametrize("kind", KINDS)
def test_pool_respawns_after_worker_sigkill_between_runs(kind):
    get, run_once = KINDS[kind]
    run_once()
    pool = get(NW)
    os.kill(pool.worker_pids()[-1], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while pool.healthy() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not pool.healthy()
    run_once()
    fresh = get(NW)
    assert fresh is not pool and fresh.healthy()
    # the dead pool was shut down: none of its blocks remain registered
    assert not [b for b in live_blocks() if b.startswith(pool.prefix)]


_EXIT_SCRIPT = """
import os
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.util.workerpool import live_blocks

run(RunConfig(kernel="invert", variant="omp_tiled", dim=32, tile_w=8,
              tile_h=8, iterations=1, nthreads=2, backend="procs"))
run(RunConfig(kernel="life", variant="mpi_omp", dim=32, tile_w=16,
              tile_h=16, iterations=1, arg="diag", mpi_np=2,
              mpi_backend="procs"))
live = live_blocks()
assert any(n.startswith("ezpap_pool_") for n in live), live
assert any(n.startswith("ezmpi_") for n in live), live
print(os.getpid())
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_exit_without_shutdown_leaks_no_shared_memory():
    env = dict(os.environ,
               PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_SCRIPT], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pid = proc.stdout.split()[-1]
    assert [n for n in os.listdir("/dev/shm") if f"_{pid}_" in n] == []
    # the pools' exit hook unlinked everything: the resource tracker, the
    # last line of defence, found nothing left to clean up
    assert "leaked" not in proc.stderr, proc.stderr
