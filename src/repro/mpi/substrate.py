"""The process host for MPI worlds: one rank per worker of the team.

Ranks are the workers of :mod:`repro.util.workerpool`'s team for the
world size — the processes procs regions of that width run on — spawned
once and reused across worlds.  They run the one
:class:`~repro.mpi.comm.Comm` over lanes and a control block in two
POSIX shared-memory blocks (laid out by
:func:`~repro.mpi.comm.world_arrays`), so CPU-bound ranks genuinely run
in parallel; everything else is the communicator's.

Failure is loud and bounded, pyuvsim-style: a rank raising (or dying
outright — SIGKILL included) flips the abort word; every blocked peer
notices within a poll interval and unwinds, the master reaps the world
and raises a clean :class:`~repro.errors.MpiError` (or, for a dead
rank, :class:`~repro.errors.ExecutionError`) instead of letting the
survivors sit out the 60 s recv backstop.  Message counts and byte
volumes are each rank's :class:`~repro.mpi.comm.CommStats`, returned
with its result; the launcher sums them into the ``*_world`` counters.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.errors import MpiError
from repro.mpi.comm import (
    Comm,
    abort_world,
    default_recv_timeout,
    world_arrays,
    world_failure,
    world_nbytes,
)
from repro.util.workerpool import WorkerPool, alloc_block, live_blocks, shutdown_teams

__all__ = [
    "MpiPool",
    "run_world_procs",
    "get_mpi_pool",
    "shutdown_mpi_pools",
    "live_mpi_blocks",
]


# --------------------------------------------------------------------------
# Rank worker process
# --------------------------------------------------------------------------


def _rank_worker(rank: int, size: int, lock, bufs: list):
    """The request handler of one rank process: each request is one
    world, ``(fn, recv_timeout, window_prefix)``."""
    arrays = world_arrays(size, *bufs)

    def handle(tag: str, payload: tuple) -> tuple[str, Any]:
        fn, recv_timeout, window_prefix = payload
        kind, value = Comm(rank, size, *arrays, recv_timeout, window_prefix)._run(fn)
        if kind == "result":
            return kind, value
        return kind, f"{type(value).__name__}: {value}"  # exceptions travel as text

    return handle


# --------------------------------------------------------------------------
# Master side
# --------------------------------------------------------------------------


class MpiPool(WorkerPool):
    """The MPI service on the worker team: one rank per worker."""

    def __init__(self, size: int):
        if size < 1:
            raise MpiError(f"world size must be >= 1, got {size}")
        super().__init__("ezmpi_", size)
        self.size = size
        ctrl_n, lane_n = world_nbytes(size)
        ctrl_shm = alloc_block(self.prefix + "ctrl_", 0, ctrl_n)
        lane_shm = alloc_block(self.prefix + "lanes_", 0, lane_n)
        self.ctrl, self.lane_hdr, _ = world_arrays(size, ctrl_shm.buf, lane_shm.buf)
        self._serve(_rank_worker, [ctrl_shm.name, lane_shm.name])

    # -- running a world ------------------------------------------------------
    def run(
        self,
        fn: Callable[[Comm, int], Any],
        *,
        recv_timeout: float | None = None,
    ) -> list[Any]:
        """Dispatch ``fn(comm, rank)`` to every rank; collect in order.

        Liveness is supervised: a rank that dies flips the abort word so
        its peers unwind promptly, then the team is torn down and a
        clean :class:`ExecutionError` raised — bounded, never the recv
        backstop.
        """
        timeout = default_recv_timeout() if recv_timeout is None else recv_timeout
        if not self.healthy():
            raise self._fail("MPI rank pool is broken")
        # quiescent reset: workers only touch lanes between "world" and
        # their reply, so zeroing here races with nothing
        self.ctrl[:] = 0
        self.lane_hdr[:] = 0
        try:
            # window names carry the epoch _dispatch is about to assign
            epoch = self._dispatch(
                "world", (fn, timeout, f"{self.prefix}e{self.team.epoch + 1}_")
            )
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise self._fail(f"MPI rank pool died at dispatch: {exc}") from None
        results: list[Any] = [None] * self.size
        errors: list[tuple[int, str]] = []
        aborted: list[int] = []
        dead_ranks: list[int] = []
        grace_deadline: float | None = None
        for rank, kind, value in self._replies(epoch, 0.005):
            if kind == "result":
                results[rank] = value
            elif kind == "aborted":
                aborted.append(rank)
            elif kind == "error":
                errors.append((rank, value))
            elif kind == "dead":
                dead_ranks.append(rank)
                abort_world(self.ctrl, rank)  # its peers unwind promptly
                grace_deadline = grace_deadline or time.monotonic() + 10.0
            elif grace_deadline is not None and time.monotonic() > grace_deadline:
                raise self._fail(
                    f"MPI rank(s) {dead_ranks} died; peers did not unwind "
                    "within the abort grace period"
                )
        if dead_ranks:
            raise self._fail(
                f"MPI rank {dead_ranks[0]} died "
                f"(world of {self.size} aborted, peers unwound cleanly)"
            )
        if errors:
            raise world_failure(errors, aborted)
        if aborted:  # pragma: no cover - abort without an error reply
            raise MpiError(f"MPI world aborted (ranks {sorted(aborted)})")
        return results


#: the MPI service on the team of a world size (respawned if broken)
get_mpi_pool = MpiPool.get

#: stop every worker team (procs regions run there too) and unlink its blocks
shutdown_mpi_pools = shutdown_teams


def live_mpi_blocks() -> list[str]:
    """Names of MPI-owned shared blocks still registered (leak tests)."""
    return [n for n in live_blocks() if n.startswith("ezmpi_")]


def run_world_procs(
    size: int,
    fn: Callable[[Comm, int], Any],
    *,
    recv_timeout: float | None = None,
) -> list[Any]:
    """Run ``fn(comm, rank)`` on every rank of the process world.

    The process-substrate twin of :func:`repro.mpi.comm.run_world`:
    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` over one).  Raises :class:`MpiError` when
    ranks fail, :class:`ExecutionError` when one dies outright.
    """
    return get_mpi_pool(size).run(fn, recv_timeout=recv_timeout)
