"""The local-procs executor: a socket master with forked localhost workers.

Each drain forks ``min(workers, len(jobs))`` processes running
``run_worker`` against this executor's private ``127.0.0.1`` listener,
so dispatch, leases, requeues and error rows are the socket master's.
A dead worker is replaced while jobs remain, at most ``len(jobs) *
(max_requeues + 1)`` times; then, with no worker left, the rest become
error rows.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Iterator

from repro.expt.executors.serial import SerialExecutor
from repro.expt.executors.socketexec import SocketExecutor, run_worker
from repro.expt.replay import WorkProfileCache

__all__ = ["LocalProcsExecutor"]

# fork where available (cheap, shares the kernel registry); spawn otherwise
_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")


def _local_worker(port: int, inherited) -> None:
    # a procs or MPI point starts a worker pool of its own, and a daemon
    # may not have children; the master still treats this worker as a
    # daemon, and close() still bounds its life
    multiprocessing.current_process().daemon = False
    if inherited is not None:  # the master's listener, copied by fork
        inherited.close()
    run_worker("127.0.0.1", port)


class LocalProcsExecutor(SocketExecutor):
    name = "local-procs"

    def __init__(self, workers: int, *, lease_timeout: float = 300.0,
                 max_requeues: int = 2, verbose: bool = False) -> None:
        super().__init__(lease_timeout=lease_timeout, max_requeues=max_requeues)
        self.verbose = verbose  # set late: the private address goes unannounced
        self.workers = max(1, workers)
        self._procs: list = []
        self._respawns = 0

    def _fork(self, n: int) -> None:
        inherited = self._listener if _CTX.get_start_method() == "fork" else None
        for _ in range(n):
            self._procs.append(_CTX.Process(
                target=_local_worker, args=(self.address[1], inherited), daemon=True))
            self._procs[-1].start()

    def drain(self) -> Iterator[dict]:
        if len(self.jobs) <= 1 or self.workers == 1:  # forking buys nothing
            yield from SerialExecutor.drain(self)
            return
        if self.options.reuse_work:  # each workload's points dispatched together
            with self._lock:
                self._queue.sort(key=lambda i: (
                    WorkProfileCache.workload_key(self._by_id[i].config), self._by_id[i].rep))
        self._respawns = len(self.jobs) * (self.max_requeues + 1)
        self._fork(min(self.workers, len(self.jobs)))
        yield from super().drain()

    def _idle(self) -> None:
        super()._idle()
        self._procs = [p for p in self._procs if p.is_alive()]  # reaps the dead
        with self._lock:
            missing = min(self.workers, len(self.jobs) - len(self._resolved)) - len(self._procs)
        n = min(missing, self._respawns)
        if n > 0:
            self._respawns -= n
            self._fork(n)
        elif missing > 0 and not self._procs:
            self._abandon_unresolved("every local worker died; gave up respawning")

    def close(self) -> None:
        super().close()  # workers now see NO_MORE_JOBS or EOF
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            proc.kill()  # a no-op once it has exited
            proc.join()
        self._procs = []
