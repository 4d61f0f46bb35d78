"""The persistent worker team, held for both of its services.

The procs tile pool and the MPI rank pool are two services on one team
of workers per size (:mod:`repro.util.workerpool`): procs regions and
MPI worlds of one size run on the same processes, the team persists
across runs, a worker SIGKILLed between runs is replaced on next use
of either service, and a process that exits without shutting its team
down leaves no ``/dev/shm`` entry behind.  A single-threaded master
forks its workers (any other live thread keeps the forkserver), and a
master SIGKILLed outright leaves no worker running.  Rank programs live
at module level (ranks import them).
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.engine import run
from repro.mpi.substrate import get_mpi_pool, run_world_procs, shutdown_mpi_pools
from repro.omp.procs import ProcPool, get_pool, shutdown_pools
from repro.util.workerpool import START_METHODS, live_blocks

from .conftest import fresh_python, make_config

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


#: service -> (registry lookup, one run on that service)
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
    # the dead team was shut down: none of its blocks remain registered
    assert not [b for b in live_blocks() if b.startswith(pool.prefix)]


def _team_children() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()
            if p.name.startswith("easypap-worker-")]


def test_procs_and_mpi_run_on_one_team():
    shutdown_pools()
    _run_procs()
    _run_mpi()
    _run_procs()
    pids = get_pool(NW).worker_pids()
    assert get_mpi_pool(NW).worker_pids() == pids
    assert sorted(_team_children()) == sorted(pids)
    assert len(pids) == NW


def test_worker_sigkilled_between_mpi_and_procs_is_replaced():
    _run_mpi()
    mpi_pool = get_mpi_pool(NW)
    procs_pool = get_pool(NW)
    old_pids = mpi_pool.worker_pids()
    os.kill(old_pids[0], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while procs_pool.healthy() and time.monotonic() < deadline:
        time.sleep(0.05)
    # one team: the procs service sees the MPI rank's death too
    assert not procs_pool.healthy() and not mpi_pool.healthy()
    _run_procs()
    pids = get_pool(NW).worker_pids()
    assert get_pool(NW) is not procs_pool
    assert not set(pids) & set(old_pids)
    _run_mpi()
    assert get_mpi_pool(NW) is not mpi_pool
    assert get_mpi_pool(NW).worker_pids() == pids
    # the dead team unlinked both services' blocks
    for dead in (procs_pool, mpi_pool):
        assert not [b for b in live_blocks() if b.startswith(dead.prefix)]


_EXIT_SCRIPT = """
import os
import sys
from repro.core.config import RunConfig
from repro.core.engine import run
from repro.util.workerpool import live_blocks

configs = {
    "procs": RunConfig(kernel="invert", variant="omp_tiled", dim=32, tile_w=8,
                       tile_h=8, iterations=1, nthreads=2, backend="procs"),
    "mpi": RunConfig(kernel="life", variant="mpi_omp", dim=32, tile_w=16,
                     tile_h=16, iterations=1, arg="diag", mpi_np=2,
                     mpi_backend="procs"),
}
for service in sys.argv[1:]:
    run(configs[service])
live = live_blocks()
assert any(n.startswith("ezpap_pool_") for n in live), live
assert any(n.startswith("ezmpi_") for n in live), live
print(os.getpid())
"""


def _exit_without_shutdown(*services: str) -> None:
    env = dict(os.environ,
               PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_SCRIPT, *services], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pid = proc.stdout.split()[-1]
    assert [n for n in os.listdir("/dev/shm") if f"_{pid}_" in n] == []
    # the team's exit hook unlinked everything: no resource tracker, the
    # last line of defence, found anything left to clean up
    assert "resource_tracker" not in proc.stderr, proc.stderr


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_exit_without_shutdown_leaks_no_shared_memory():
    _exit_without_shutdown("procs", "mpi")


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_exit_without_shutdown_after_mpi_first_leaks_no_shared_memory():
    # the MPI service spawns the team here: its workers must report the
    # blocks they map to the master's resource tracker, not start their own
    _exit_without_shutdown("mpi", "procs")


# -- the start method ----------------------------------------------------------

_FORK_SCRIPT = """
import threading
import warnings

from repro.core.config import RunConfig
from repro.core.engine import run
from repro.mpi.substrate import get_mpi_pool
from repro.omp.procs import get_pool

assert threading.active_count() == 1, threading.enumerate()
# Python >= 3.12 warns when it forks a process with more than one OS thread
warnings.simplefilter("error", DeprecationWarning)
run(RunConfig(kernel="invert", variant="omp_tiled", dim=32, tile_w=8,
              tile_h=8, iterations=1, nthreads=2, backend="procs"))
run(RunConfig(kernel="life", variant="mpi_omp", dim=32, tile_w=16,
              tile_h=16, iterations=1, arg="diag", mpi_np=2,
              mpi_backend="procs"))
print(get_pool(2).team._mp.get_start_method(), get_mpi_pool(2).team._mp.get_start_method())
"""


def test_single_threaded_master_forks_both_pools_without_warning():
    proc = fresh_python("-c", _FORK_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fork", "fork"]


def test_live_thread_keeps_the_forkserver():
    shutdown_pools()  # the next service spawns a team under the live thread
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        pool = ProcPool(NW)
        try:
            assert pool.team._mp.get_start_method() in START_METHODS
            assert pool.healthy()
        finally:
            pool.shutdown()
    finally:
        stop.set()
        thread.join()


_LATE_KERNEL = """
from repro.core.kernel import Kernel, register_kernel, variant


@register_kernel
class LateKernel(Kernel):
    name = "late_loaded"

    def do_tile(self, ctx, tile):
        x, y, w, h = tile.as_rect()
        ctx.img.cur_view(y, x, h, w, mode="w")[:] = 0x12345678
        return float(tile.area)

    @variant("omp_tiled")
    def compute_omp_tiled(self, ctx, nb_iter):
        for _ in ctx.iterations(nb_iter):
            ctx.parallel_for(ctx.body(self.do_tile))
        return 0
"""


def test_kernel_loaded_after_the_spawn_reaches_the_workers(tmp_path):
    from repro.core.kernel import load_kernel_module

    _run_procs()
    pool = get_pool(NW)
    path = tmp_path / "late_kernel.py"
    path.write_text(_LATE_KERNEL)
    load_kernel_module(str(path))
    res = run(make_config(kernel="late_loaded", backend="procs", nthreads=NW,
                          iterations=1, dim=32))
    assert get_pool(NW) is pool  # the same workers, started before the load
    assert (res.image == 0x12345678).all()


_ORPHAN_SCRIPT = """
import time

from repro.core.config import RunConfig
from repro.core.engine import run
from repro.mpi.substrate import get_mpi_pool
from repro.omp.procs import get_pool

run(RunConfig(kernel="invert", variant="omp_tiled", dim=32, tile_w=8,
              tile_h=8, iterations=1, nthreads=2, backend="procs"))
run(RunConfig(kernel="life", variant="mpi_omp", dim=32, tile_w=16,
              tile_h=16, iterations=1, arg="diag", mpi_np=2,
              mpi_backend="procs"))
pids = get_pool(2).worker_pids()
assert get_mpi_pool(2).worker_pids() == pids
print(*pids, flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (an orphan's new
    parent may not reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self") or not os.path.isdir("/dev/shm"),
                    reason="needs /proc and /dev/shm")
def test_sigkilled_master_leaves_no_worker_and_no_block():
    env = dict(os.environ,
               PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    master = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT], env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        ready, _, _ = select.select([master.stdout], [], [], 60.0)
        pids = [int(p) for p in master.stdout.readline().split()] if ready else []
    finally:
        master.kill()
        master.wait(timeout=30)
    assert len(pids) == 2, pids
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        left = [p for p in pids if _running(p)]
        blocks = [n for n in os.listdir("/dev/shm") if f"_{master.pid}_" in n]
        if not left and not blocks:
            return
        time.sleep(0.05)
    for pid in left:  # do not leave them behind for the next test
        os.kill(pid, signal.SIGKILL)
    pytest.fail(f"workers {left} and blocks {blocks} outlived their master")
