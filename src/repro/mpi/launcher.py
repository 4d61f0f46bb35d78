"""The ``mpirun`` launcher.

EASYPAP integrates the mpirun process launcher (``--mpirun "-np 2"``)
and, in debugging mode (``--debug M``), displays the monitoring windows
of *every* process (Fig. 13).  Two substrates carry the ranks:

* ``mpi_backend="procs"`` (default): real processes from the persistent
  rank pool (:mod:`repro.mpi.substrate`) — CPU-bound ranks genuinely
  run in parallel, which is what Fig. 13 claims to measure;
* ``mpi_backend="inproc"``: threads over the in-process world —
  deterministic and cheap, what the test suite pins itself to.

Rank 0's result is returned, with all per-rank results (including each
rank's monitor, trace and ``mpi_*`` comm counters) attached.  Under the
process substrate a rank's ``RunResult.context`` is a picklable
:class:`~repro.mpi.proc.RankContextSnapshot` carrying ``.data`` and
``.mpi`` (the execution context itself cannot cross the process
boundary).  A ``frame_hook`` (interactive display) forces the inproc
substrate: hooks cannot reach into rank processes.
"""

from __future__ import annotations

import functools
import re
from typing import Callable

from repro.core.config import RunConfig
from repro.core.context import ExecutionContext
from repro.core.kernel import get_kernel
from repro.errors import ConfigError
from repro.mpi.comm import CommBase, CommStats, run_world
from repro.mpi.proc import MpiProcessContext, RankContextSnapshot, StatsOnlyComm
from repro.sched.costmodel import CostModel
from repro.util.timing import Stopwatch

__all__ = ["mpi_run", "parse_mpirun_args"]

#: mpirun flags whose value token must not be mistaken for junk
_VALUED_FLAGS = {"-np", "-n"}


def parse_mpirun_args(spec: str) -> int:
    """Extract the process count from an mpirun argument string.

    >>> parse_mpirun_args("-np 2")
    2

    Other mpirun *flags* (``--oversubscribe`` ...) are tolerated, but a
    bare token that is neither a flag nor the ``-np`` value is rejected
    — silently ignoring it would launch a different world than asked.
    """
    if not re.search(r"(?:^|\s)-(?:np|n)\s+(\d+)", spec.strip()):
        raise ConfigError(f"cannot find -np in mpirun arguments {spec!r}")
    np_ = None
    tokens = spec.split()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in _VALUED_FLAGS:
            if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                raise ConfigError(
                    f"{tok} needs an integer value in mpirun arguments {spec!r}"
                )
            np_ = int(tokens[i + 1])
            i += 2
            continue
        if not tok.startswith("-"):
            raise ConfigError(
                f"unparsed token {tok!r} in mpirun arguments {spec!r}"
            )
        i += 1
    if np_ is None or np_ < 1:
        raise ConfigError(f"-np must be >= 1, got {np_}")
    return np_


def _rank_config(config: RunConfig, rank: int, debug_all: bool) -> RunConfig:
    base = config.trace_label or "mpi"
    return config.with_(
        mpi_np=0,  # the per-rank engine must not re-enter the launcher
        monitoring=config.monitoring and (debug_all or rank == 0),
        trace=config.trace and (debug_all or rank == 0),
        trace_label=f"{base}.{rank}",
    )


def _publish_comm_counters(ctx: ExecutionContext, stats: CommStats) -> None:
    """Surface the rank's comm volume as telemetry counters, so they
    land in ``RunResult.counters`` on both substrates."""
    bus = ctx.bus
    bus.counter("mpi_msgs_sent", stats.messages_sent)
    bus.counter("mpi_bytes_sent", stats.bytes_sent)
    bus.counter("mpi_msgs_recv", stats.messages_received)
    bus.counter("mpi_collectives", stats.collectives)


def _run_rank(
    config: RunConfig,
    comm: CommBase,
    rank: int,
    debug_all: bool,
    model: CostModel | None,
    frame_hook: Callable | None,
) -> dict:
    """One rank's kernel lifecycle; returns a picklable result payload."""
    rank_cfg = _rank_config(config, rank, debug_all)
    kernel = get_kernel(config.kernel)
    compute = kernel.compute_fn(config.variant)
    ctx = ExecutionContext(rank_cfg, model=model)
    ctx.mpi = MpiProcessContext(rank=rank, size=config.mpi_np, comm=comm)
    if rank == 0 and frame_hook is not None:
        ctx.frame_hook = frame_hook
    kernel.init(ctx)
    kernel.draw(ctx)
    sw = Stopwatch().start()
    early = int(compute(ctx, config.iterations) or 0)
    wall = sw.stop()
    kernel.refresh_img(ctx)
    kernel.finalize(ctx)
    comm.barrier()
    _publish_comm_counters(ctx, comm.stats)
    return {
        "config": rank_cfg,
        "rank": rank,
        "size": config.mpi_np,
        "completed_iterations": ctx.completed_iterations,
        "virtual_time": ctx.vclock,
        "wall_time": wall,
        "image": ctx.img.copy_cur(),
        "monitor": ctx.monitor,
        "trace": ctx.tracer.to_trace() if ctx.tracer else None,
        "early_stop": early,
        "counters": dict(ctx.bus.counters),
        "data": dict(ctx.data),
        "stats": comm.stats,
        "ctx": ctx,  # stripped before crossing a process boundary
    }


def _kernel_rank_main(job: dict, comm: CommBase, rank: int) -> dict:
    """Entry point executed inside a rank *process* (must be picklable)."""
    from repro.core.kernel import load_kernel_module

    for path in job["kernel_files"]:
        load_kernel_module(path)
    payload = _run_rank(job["config"], comm, rank, job["debug_all"],
                        model=None, frame_hook=None)
    payload.pop("ctx")  # ExecutionContext cannot cross the pipe
    return payload


def _to_result(payload: dict, *, remote: bool):
    from repro.core.engine import RunResult  # local import: avoids a cycle

    ctx = payload.get("ctx")
    if remote or ctx is None:
        mpi_meta = MpiProcessContext(
            rank=payload["rank"],
            size=payload["size"],
            comm=StatsOnlyComm(stats=payload["stats"]),
        )
        context = RankContextSnapshot(data=payload.get("data", {}), mpi=mpi_meta)
    else:
        context = ctx
    return RunResult(
        config=payload["config"],
        completed_iterations=payload["completed_iterations"],
        virtual_time=payload["virtual_time"],
        wall_time=payload["wall_time"],
        image=payload["image"],
        monitor=payload["monitor"],
        trace=payload["trace"],
        early_stop=payload["early_stop"],
        context=context,
        counters=payload["counters"],
    )


def mpi_run(
    config: RunConfig,
    *,
    model: CostModel | None = None,
    frame_hook: Callable | None = None,
):
    """Run ``config`` on ``config.mpi_np`` ranks; returns rank 0's
    :class:`~repro.core.engine.RunResult` with ``rank_results`` filled.

    Monitoring policy mirrors EASYPAP: with ``--monitoring`` alone only
    the master rank records; with ``--debug M`` every rank does.  The
    master result reports the *laggard's* wall and virtual times — the
    ranks run synchronized by ghost exchanges, so the slowest one
    defines the world's clock.
    """
    if config.mpi_np < 1:
        raise ConfigError("mpi_run requires mpi_np >= 1")
    debug_all = "M" in (config.debug or "")

    substrate = config.mpi_backend
    if frame_hook is not None:
        # interactive hooks cannot cross a process boundary; the
        # threaded world shares the interpreter and can host them
        substrate = "inproc"

    if substrate == "procs":
        results, world_counters = _mpi_run_procs(config, debug_all)
    else:
        def rank_main(comm, rank: int) -> dict:
            return _run_rank(config, comm, rank, debug_all, model, frame_hook)

        payloads = run_world(config.mpi_np, rank_main)
        results = [_to_result(p, remote=False) for p in payloads]
        world_counters = _world_totals(p["stats"] for p in payloads)

    master = results[0]
    master.rank_results = results
    # report the slowest rank's clocks: ranks run synchronized by ghost
    # exchanges, so the laggard defines both the virtual and the wall time
    master.virtual_time = max(r.virtual_time for r in results)
    master.wall_time = max(r.wall_time for r in results)
    master.config = config
    master.counters = {**master.counters, **world_counters}
    return master


def _world_totals(all_stats) -> dict:
    totals = {"mpi_msgs_sent_world": 0, "mpi_bytes_sent_world": 0,
              "mpi_msgs_recv_world": 0, "mpi_collectives_world": 0}
    for st in all_stats:
        totals["mpi_msgs_sent_world"] += st.messages_sent
        totals["mpi_bytes_sent_world"] += st.bytes_sent
        totals["mpi_msgs_recv_world"] += st.messages_received
        totals["mpi_collectives_world"] += st.collectives
    return totals


def _mpi_run_procs(config: RunConfig, debug_all: bool):
    """Dispatch the kernel to the process substrate's rank pool."""
    from repro.core.kernel import loaded_kernel_files
    from repro.mpi.substrate import run_world_procs

    job = {
        "config": config,
        "kernel_files": loaded_kernel_files(),
        "debug_all": debug_all,
    }
    payloads = run_world_procs(config.mpi_np, functools.partial(_kernel_rank_main, job))
    results = [_to_result(p, remote=True) for p in payloads]
    return results, _world_totals(p["stats"] for p in payloads)
