"""The real-process MPI substrate: lanes, collectives, abort, windows.

Process-world test functions must live at module level (rank processes
receive them by pickled reference).  The collective-correctness matrix
runs every collective on both substrates and demands bit-identical
results — the process world is an implementation change, not a
semantics change.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core.engine import run
from repro.errors import ExecutionError, MpiError
from repro.mpi.comm import LANE_BYTES, run_world
from repro.mpi.substrate import (
    get_mpi_pool,
    live_mpi_blocks,
    run_world_procs,
    shutdown_mpi_pools,
)

from .conftest import make_config

WORLDS = [pytest.param(run_world, id="inproc"), pytest.param(run_world_procs, id="procs")]


@pytest.fixture(autouse=True, scope="module")
def _shutdown_pools_at_end():
    yield
    shutdown_mpi_pools()
    assert live_mpi_blocks() == []


# --------------------------------------------------------------------------
# rank programs (module-level: picklable by reference)
# --------------------------------------------------------------------------


def _prog_pt2pt(comm, rank):
    if rank == 0:
        for dst in range(1, comm.size):
            comm.send({"to": dst, "data": np.arange(dst + 3)}, dst, tag=7)
        return "sent"
    got = comm.recv(source=0, tag=7)
    return (got["to"], got["data"].tolist())


def _prog_sendrecv_ring(comm, rank):
    right = (rank + 1) % comm.size
    left = (rank - 1) % comm.size
    got = comm.sendrecv(rank * 10, dest=right, source=left)
    return got


def _prog_bcast(comm, rank):
    obj = {"payload": np.arange(16).reshape(4, 4)} if rank == 1 else None
    got = comm.bcast(obj, root=1)
    return got["payload"].sum()


def _prog_scatter(comm, rank):
    objs = [f"item-{i}" for i in range(comm.size)] if rank == 0 else None
    return comm.scatter(objs, root=0)


def _prog_gather(comm, rank):
    out = comm.gather(rank * rank, root=0)
    return out if rank == 0 else "nonroot"


def _prog_allgather(comm, rank):
    return comm.allgather(chr(ord("a") + rank))


def _prog_reduce(comm, rank):
    return comm.reduce(rank + 1, op=lambda a, b: a * b, root=0)


def _prog_allreduce(comm, rank):
    return comm.allreduce(rank, op=lambda a, b: a + b)


def _prog_barrier(comm, rank):
    comm.barrier()
    comm.barrier()
    return comm.stats.collectives


def _prog_nonblocking(comm, rank):
    if rank == 0:
        reqs = [comm.isend(i * 2, dest=1, tag=i) for i in range(3)]
        return [r.wait() for r in reqs]
    req = comm.irecv(source=0, tag=1)
    done, val = req.test()
    while not done:
        done, val = req.test()
        time.sleep(0.001)
    rest = [comm.recv(source=0, tag=t) for t in (0, 2)]
    return [val] + rest


def _prog_stats(comm, rank):
    if rank == 0:
        comm.send(b"x" * 100, dest=1)
    elif rank == 1:
        comm.recv(source=0)
    comm.barrier()
    st = comm.stats
    return (st.messages_sent, st.bytes_sent, st.messages_received, st.collectives)


def _prog_window(comm, rank):
    win = comm.shared_window(
        np.arange(64, dtype=np.int64).reshape(8, 8) if rank == 0 else None,
        root=0,
    )
    if rank == 0:
        win[0, 0] = 999  # mutate *after* sharing: peers must observe it
    comm.barrier()
    writable = win.flags.writeable
    return (int(win[0, 0]), int(win[-1, -1]), writable,
            comm.stats.messages_sent, comm.stats.bytes_sent)


def _prog_big_messages(comm, rank):
    """Messages three lanes long: chunked writes + drain-on-full."""
    peer = 1 - rank
    data = np.full(3 * LANE_BYTES, rank, dtype=np.uint8)
    got = comm.sendrecv(data, dest=peer)
    return (int(got[0]), int(got[-1]), got.nbytes)


def _prog_late_send(comm, rank):
    if rank == 1:
        time.sleep(1.0)
        comm.send("late", dest=0, tag=3)
        return "sent"
    return comm.recv(source=1, tag=3)


def _prog_self_send(comm, rank):
    comm.send(("me", rank), dest=rank, tag=4)
    return comm.recv(source=rank, tag=4)


def _prog_raise(comm, rank):
    if rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.recv(source=1)  # must unwind via the abort word, not timeout


def _prog_sleep_or_recv(comm, rank):
    if rank == 0:
        time.sleep(30)
        return "slept"
    return comm.recv(source=0)


# --------------------------------------------------------------------------
# collective-correctness matrix: procs must equal inproc bit-for-bit
# --------------------------------------------------------------------------

_MATRIX = [
    _prog_pt2pt,
    _prog_sendrecv_ring,
    _prog_bcast,
    _prog_scatter,
    _prog_gather,
    _prog_allgather,
    _prog_reduce,
    _prog_allreduce,
    _prog_barrier,
    _prog_stats,
    _prog_window,
]


@pytest.mark.parametrize("prog", _MATRIX, ids=lambda p: p.__name__[6:])
def test_collective_matrix_np2(prog):
    inproc = run_world(2, prog)
    procs = run_world_procs(2, prog)
    assert procs == inproc


@pytest.mark.slow
@pytest.mark.parametrize("prog", _MATRIX, ids=lambda p: p.__name__[6:])
def test_collective_matrix_np3(prog):
    inproc = run_world(3, prog)
    procs = run_world_procs(3, prog)
    assert procs == inproc


def test_nonblocking_matches_inproc():
    assert run_world_procs(2, _prog_nonblocking) == run_world(2, _prog_nonblocking)


def test_big_messages_chunk_through_small_lanes():
    for world in (run_world, run_world_procs):
        out = world(2, _prog_big_messages)
        assert out == [(1, 1, 3 * LANE_BYTES), (0, 0, 3 * LANE_BYTES)], world.__name__


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("size", [1, 2])
def test_self_sends_are_delivered(world, size):
    # each rank's lane to itself is drained like any other inbound lane
    assert world(size, _prog_sendrecv_ring, recv_timeout=20.0) == [
        (rank - 1) % size * 10 for rank in range(size)
    ]
    assert world(size, _prog_self_send, recv_timeout=20.0) == [
        ("me", rank) for rank in range(size)
    ]


# --------------------------------------------------------------------------
# deadlock analysis against the process substrate (the verdict cases both
# worlds share are in test_mpi_deadlock.py)
# --------------------------------------------------------------------------


def test_recv_timeout_reports_deadlock():
    t0 = time.monotonic()
    with pytest.raises(MpiError, match="timed out.*deadlock"):
        # rank 1 computes (active, undiagnosable) past rank 0's backstop
        run_world_procs(2, _prog_late_send, recv_timeout=0.3)
    assert time.monotonic() - t0 < 10.0


# --------------------------------------------------------------------------
# abort semantics: one dying rank takes the world down, boundedly
# --------------------------------------------------------------------------


@pytest.mark.parametrize("world", WORLDS)
def test_raising_rank_aborts_world_quickly(world):
    t0 = time.monotonic()
    with pytest.raises(MpiError) as exc:
        world(2, _prog_raise, recv_timeout=60.0)
    # the raising rank is the only failed one: its blocked peer unwinds
    # via the abort word, not a deadlock verdict or the 60s backstop
    assert str(exc.value) == (
        "1 rank(s) failed: rank 1: ValueError: rank 1 exploded; "
        "rank 0: aborted by peer"
    )
    assert time.monotonic() - t0 < 10.0


@pytest.mark.slow
def test_sigkilled_rank_bounded_abort_no_leaks():
    pool = get_mpi_pool(2)
    victim = pool.worker_pids()[0]
    box: dict = {}

    def _world():
        try:
            run_world_procs(2, _prog_sleep_or_recv, recv_timeout=60.0)
            box["result"] = "completed"
        except BaseException as exc:  # noqa: BLE001 - inspected below
            box["exc"] = exc

    t = threading.Thread(target=_world)
    t.start()
    time.sleep(0.5)  # let the world block: rank 0 sleeps, rank 1 recvs
    os.kill(victim, signal.SIGKILL)
    t.join(timeout=20.0)
    assert not t.is_alive(), "world did not unwind after SIGKILL"
    assert isinstance(box.get("exc"), ExecutionError)
    assert "died" in str(box["exc"])
    # the failed pool was torn down: none of its /dev/shm segments remain
    # (other, healthy persistent pools may legitimately still be live)
    assert not [b for b in live_mpi_blocks() if b.startswith(pool.prefix)]
    # and the next world transparently respawns the pool
    assert run_world_procs(2, _prog_allreduce) == [1, 1]


def test_undecodable_world_function_is_an_error_not_a_dead_pool(monkeypatch):
    # the master can pickle ghost.prog by reference, but its module exists
    # only in the master's sys.modules: every rank fails to unpickle it
    ghost = types.ModuleType("repro_ghost_world")
    exec("def prog(comm, rank):\n    return rank\n", ghost.__dict__)
    monkeypatch.setitem(sys.modules, ghost.__name__, ghost)
    pids = get_mpi_pool(2).worker_pids()
    with pytest.raises(MpiError, match="ModuleNotFoundError"):
        run_world_procs(2, ghost.prog)
    assert get_mpi_pool(2).worker_pids() == pids
    assert run_world_procs(2, _prog_allreduce) == [1, 1]


# --------------------------------------------------------------------------
# kernels end-to-end on the process substrate
# --------------------------------------------------------------------------


def test_life_procs_equals_seq_and_inproc():
    cfg = make_config(kernel="life", variant="mpi_omp", dim=64, iterations=4,
                      arg="diag", mpi_np=2, mpi_backend="procs")
    procs = run(cfg)
    inproc = run(cfg.with_(mpi_backend="inproc"))
    seq = run(make_config(kernel="life", variant="seq", dim=64, iterations=4,
                          arg="diag"))
    assert np.array_equal(procs.image, seq.image)
    assert np.array_equal(procs.image, inproc.image)
    # deterministic engine inside each rank: virtual clocks agree too
    assert procs.virtual_time == inproc.virtual_time


def test_inproc_windows_leave_no_shared_memory():
    shutdown_mpi_pools()  # only this world's window blocks may show up
    cfg = make_config(kernel="life", variant="mpi_omp", dim=64, iterations=2,
                      arg="diag", mpi_np=2, mpi_backend="inproc")
    res = run(cfg)
    assert res.rank_results[1].context.data["cells"].any()
    assert live_mpi_blocks() == []
    if os.path.isdir("/dev/shm"):
        mine = f"ezmpi_{os.getpid()}_"
        assert [n for n in os.listdir("/dev/shm") if n.startswith(mine)] == []


def test_rank_results_carry_context_snapshots():
    cfg = make_config(kernel="life", variant="mpi_omp", dim=64, iterations=2,
                      arg="diag", mpi_np=2, mpi_backend="procs")
    res = run(cfg)
    assert len(res.rank_results) == 2
    for rank, rr in enumerate(res.rank_results):
        assert rr.context is not None
        assert rr.context.mpi.rank == rank
        assert rr.context.mpi.size == 2
        assert rr.context.mpi.comm.stats.messages_sent > 0
        assert "cells" in rr.context.data


def test_comm_counters_in_run_result():
    cfg = make_config(kernel="life", variant="mpi_omp", dim=64, iterations=2,
                      arg="diag", mpi_np=2, mpi_backend="procs")
    res = run(cfg)
    for rr in res.rank_results:
        st = rr.context.mpi.comm.stats
        assert rr.counters["mpi_msgs_sent"] == st.messages_sent
        assert rr.counters["mpi_bytes_sent"] == st.bytes_sent
        assert rr.counters["mpi_msgs_recv"] == st.messages_received
        assert rr.counters["mpi_collectives"] == st.collectives
    # world totals on the master result are the sums of the per-rank stats
    assert res.counters["mpi_msgs_sent_world"] == sum(
        rr.context.mpi.comm.stats.messages_sent for rr in res.rank_results
    )
    assert res.counters["mpi_bytes_sent_world"] == sum(
        rr.context.mpi.comm.stats.bytes_sent for rr in res.rank_results
    )


def test_counters_identical_across_substrates():
    cfg = make_config(kernel="life", variant="mpi_omp", dim=64, iterations=3,
                      arg="diag", mpi_np=2)
    inproc = run(cfg.with_(mpi_backend="inproc"))
    procs = run(cfg.with_(mpi_backend="procs"))

    def pick(r):
        return {k: v for k, v in r.counters.items() if k.startswith("mpi_")}

    assert pick(procs) == pick(inproc)


@pytest.mark.slow
def test_heat_mpi_2d_on_procs():
    cfg = make_config(kernel="heat", variant="mpi_2d", dim=64, iterations=3,
                      mpi_np=4, mpi_backend="procs")
    procs = run(cfg)
    inproc = run(cfg.with_(mpi_backend="inproc"))
    assert np.array_equal(procs.image, inproc.image)
