"""Per-rank MPI context attached to the execution context."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mpi.comm import Comm, CommStats

__all__ = ["MpiProcessContext", "RankContextSnapshot", "StatsOnlyComm"]


@dataclass
class MpiProcessContext:
    """What a kernel sees through ``ctx.mpi`` when launched under
    ``--mpirun``: its rank, the world size and the communicator."""

    rank: int
    size: int
    comm: Comm

    @property
    def is_master(self) -> bool:
        return self.rank == 0


@dataclass
class StatsOnlyComm:
    """Picklable stand-in for a remote rank's communicator: carries the
    final traffic statistics, no transport (the lanes died with the
    world epoch)."""

    stats: CommStats


@dataclass
class RankContextSnapshot:
    """Picklable stand-in for a remote rank's ExecutionContext.

    Process-substrate ranks cannot ship their real context across the
    result pipe (locks, shared-memory views, open consumers); this
    snapshot preserves what callers inspect after the run: the kernel's
    ``ctx.data`` dictionary and ``ctx.mpi`` with the comm statistics.
    """

    data: dict = field(default_factory=dict)
    mpi: MpiProcessContext | None = None
