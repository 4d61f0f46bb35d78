"""The executor contract: how a sweep's (configuration, repetition)
grid gets turned into CSV rows.

An :class:`Executor` owns *where* sweep points run — inline, on
forked localhost workers, or on remote workers across a cluster — while
``exptools.execute`` owns *what* runs (the grid, resume filtering) and
*how results persist* (streaming appends to the flock-safe csvdb).
The interface is deliberately tiny:

* :meth:`Executor.configure` receives the sweep-wide
  :class:`RunOptions` once, before any job;
* :meth:`Executor.submit` enqueues one :class:`SweepJob`;
* :meth:`Executor.drain` yields one result row per submitted job, in
  completion order, and returns only when every job is resolved —
  either with a measured ``status=ok`` row or a ``status=error`` row;
* :meth:`Executor.close` releases worker processes/sockets (idempotent).

Every executor resolves **all** submitted jobs: a lost worker must
never silently swallow a grid point.  Rows carry provenance columns
(``executor``, ``worker_id``, ``memo``) so a merged database records
where — and through which cache — each measurement ran; the *resume
identity* (the parameters of ``RunConfig.csv_row()`` + the ``run``
index) deliberately excludes them, so a sweep started under one
executor resumes under any other.

:func:`run_point` — one (configuration, repetition) to one row, with
per-point timeout/retries — is the single execution path shared by all
executors, including remote socket workers; :func:`result_row` is the
one row shape it, the error rows and ``easypap --csv`` share.
"""

from __future__ import annotations

import os
import platform
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.config import RunConfig
from repro.core.engine import run
from repro.expt.replay import WorkProfileCache

__all__ = [
    "Executor",
    "RunOptions",
    "SweepJob",
    "SweepTimeout",
    "run_point",
    "result_row",
    "error_row",
    "worker_identity",
]


class SweepTimeout(Exception):
    """A single sweep point exceeded its ``timeout=`` budget."""


@dataclass(frozen=True)
class SweepJob:
    """One grid point: a configuration plus its repetition index.

    ``job_id`` is the point's position in this invocation's job list —
    a dispatch handle only (lease tracking, requeue bookkeeping); the
    durable identity that survives crashes and executor changes is the
    parameters of ``config.csv_row()`` + ``rep``.
    """

    job_id: int
    config: RunConfig
    rep: int


@dataclass(frozen=True)
class RunOptions:
    """Sweep-wide execution options, shipped to every worker once per
    job (they are tiny) so remote workers need no out-of-band setup."""

    machine: str = "virtual"
    timeout: float | None = None
    retries: int = 0
    reuse_work: bool = False
    cache_dir: str | None = None

    def make_cache(self) -> WorkProfileCache | None:
        return WorkProfileCache(cache_dir=self.cache_dir) if self.reuse_work else None


def worker_identity() -> str:
    """Provenance label of the executing process (``host-pid``)."""
    return f"{platform.node()}-{os.getpid()}"


# -- running one point --------------------------------------------------------

@contextmanager
def _time_limit(seconds: float | None) -> Iterator[None]:
    """Raise :class:`SweepTimeout` after ``seconds`` of wall time.

    Implemented with ``SIGALRM``, so it is enforced only on POSIX main
    threads (local-procs and socket workers both run points on their
    main thread); elsewhere it degrades to a no-op rather than failing
    the sweep.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise SweepTimeout(f"run exceeded {seconds}s")

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


def result_row(config: RunConfig, rep: int, machine: str, *, time_us: float | str = "",
               completed: int = 0, steals: int | str = "", status: str = "ok",
               error: str = "", memo: str = "", worker_id: str = "") -> dict:
    """The one shape of a results row: ``config``'s parameters
    (``RunConfig.csv_row``), the repetition index, the measurements and
    the provenance (roles in :data:`repro.expt.csvdb.COLUMN_ROLES`).
    Sweep points, error rows and ``easypap --csv`` all build rows here;
    ``memo`` is "" for a point measured live."""
    return {
        **config.csv_row(machine), "run": rep, "time_us": time_us,
        "completed": completed, "steals": steals, "memo": memo, "status": status,
        "error": error[:200], "worker_id": worker_id or worker_identity(),
    }


def error_row(config: RunConfig, rep: int, machine: str, message: str,
              worker_id: str = "") -> dict:
    """The ``status=error`` row shared by point execution (a point that
    kept failing) and the socket master (a point whose workers kept
    dying)."""
    return result_row(config, rep, machine, status="error", error=message,
                      worker_id=worker_id)


def run_point(
    job: SweepJob,
    options: RunOptions,
    cache: WorkProfileCache | None = None,
) -> dict:
    """One (configuration, repetition): a CSV row, never an exception.

    Failures and timeouts are retried up to ``options.retries`` times,
    then recorded as a ``status=error`` row so the rest of the sweep
    (and ``easyplot`` over its output) keeps working.  A replayed point
    (``cache`` given) records the same row as a live one, but for its
    provenance.
    """
    config, rep = job.config, job.rep
    rep_cfg = config.with_(run_index=rep)
    last_error = ""
    for _attempt in range(max(0, options.retries) + 1):
        try:
            with _time_limit(options.timeout):
                if cache is not None:
                    elapsed = cache.simulate(rep_cfg)
                    completed = cache.last_completed
                    steals = cache.last_steals
                    memo = cache.last_memo
                else:
                    result = run(rep_cfg)
                    elapsed = result.elapsed
                    completed = result.completed_iterations
                    steals = result.counters.get("steals", 0)
                    memo = ""
        except SweepTimeout as exc:
            last_error = str(exc)
            continue
        except Exception as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        return result_row(
            config, rep, options.machine,
            time_us=round(elapsed * 1e6, 3), completed=completed,
            steals=int(steals), memo=memo,
        )
    return error_row(config, rep, options.machine, last_error)


# -- the interface ------------------------------------------------------------

class Executor:
    """Pluggable sweep-point execution backend (see module docstring).

    Subclasses set :attr:`name` (the ``executor`` provenance cell) and
    implement :meth:`drain`; :attr:`counters` accumulates fabric
    health: ``jobs_dispatched`` (JOB handed to a worker, including
    re-dispatches), ``jobs_requeued`` (leases returned to the queue
    after a worker died or timed out) and ``worker_disconnects``.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.options = RunOptions()
        self.jobs: list[SweepJob] = []
        self.counters: dict[str, int] = {
            "jobs_dispatched": 0,
            "jobs_requeued": 0,
            "worker_disconnects": 0,
            "memo_hits": 0,
            "memo_misses": 0,
        }

    def configure(self, options: RunOptions) -> None:
        """Receive the sweep-wide run options (before any submit)."""
        self.options = options

    def submit(self, job: SweepJob) -> None:
        """Enqueue one grid point (does not start execution)."""
        self.jobs.append(job)

    def drain(self) -> Iterator[dict]:
        """Yield one provenance-stamped row per submitted job; return
        only when every job is resolved (ok or error)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; idempotent, safe after a failed drain."""

    def _stamp(self, row: dict) -> dict:
        row["executor"] = self.name
        return row

    # executors are context managers so ad-hoc users cannot leak workers
    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
