"""The socket executor: a TCP rank-0-style master and pull-model workers.

Deployment is one master plus any number of workers, on any hosts::

    # on the master host (binds, prints the address, runs the sweep)
    python -m repro.expt -k mandel ... --executor socket --bind 0.0.0.0:7777

    # on each worker host (N processes per host for N cores)
    python -m repro.expt worker --connect master-host:7777

Workers *pull*: each sends ``REQUEST_JOB``, receives a ``JOB`` (the
pickled configuration, repetition index and sweep-wide run options),
executes it through the same :func:`~repro.expt.executors.base.run_point`
path every other executor uses, pushes a ``RESULT`` row and asks
again.  The master streams rows into the flock-safe csvdb as they
arrive, so the database is complete-to-date at every instant.

Robustness model (what the fault-injection tests pin down):

* every dispatched job carries a **lease** — worker death (EOF on its
  connection) or a missed lease deadline returns the job to the queue
  and another worker re-runs it;
* requeues are **bounded** (``max_requeues``): a point whose workers
  keep dying becomes a ``status=error`` row, never an endless loop;
* results are deduplicated by job id, so a revoked lease whose worker
  was merely slow cannot produce a duplicate CSV row;
* parked workers (grid temporarily empty while leases are pending)
  send ``HEARTBEAT`` frames and wait; when the grid resolves they get
  ``NO_MORE_JOBS`` and exit 0 — as does a worker connecting after the
  sweep finished (connection refused means the master is gone, which a
  worker treats as "sweep over", not an error);
* a killed master loses nothing that reached the CSV: re-running the
  sweep with ``resume=True`` (under *any* executor) finishes exactly
  the missing points.
"""

from __future__ import annotations

import queue
import select
import socket
import threading
import time
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError
from repro.expt.executors.base import (
    Executor,
    RunOptions,
    SweepJob,
    error_row,
    run_point,
    worker_identity,
)
from repro.expt.executors.protocol import (
    HEARTBEAT,
    JOB,
    MESSAGE_NAMES,
    NO_MORE_JOBS,
    REQUEST_JOB,
    RESULT,
    ProtocolError,
    recv_message,
    send_message,
)

__all__ = ["SocketExecutor", "run_worker", "parse_address"]


def parse_address(text: str) -> tuple[str, int]:
    """``host:port`` → (host, port); raises ConfigError on junk."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"expected HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"bad port in {text!r}") from None


@dataclass
class _Lease:
    job_id: int
    worker_id: str
    deadline: float
    conn: socket.socket


def _shutdown(conn: socket.socket) -> None:
    """Wake any thread blocked in recv on ``conn``, then close it."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:  # pragma: no cover - close rarely fails
        pass


class SocketExecutor(Executor):
    """TCP master for the ``socket`` executor (see module docstring).

    Binds immediately, so :attr:`address` is known before any worker
    starts; ``port=0`` picks a free ephemeral port (tests, single-host
    use).  One thread accepts connections (from :meth:`start` on) and
    one serves each worker; all shared state lives behind one lock +
    condition.
    """

    name = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = 300.0,
        max_requeues: int = 2,
        linger: float = 5.0,
        verbose: bool = False,
    ) -> None:
        super().__init__()
        if lease_timeout <= 0:
            raise ConfigError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_requeues < 0:
            raise ConfigError(f"max_requeues must be >= 0, got {max_requeues}")
        self.lease_timeout = lease_timeout
        self.max_requeues = max_requeues
        self.linger = linger
        self.verbose = verbose

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: list[int] = []  # job_ids ready to dispatch (FIFO)
        self._by_id: dict[int, SweepJob] = {}
        self._leases: dict[int, _Lease] = {}  # keyed by id(conn)
        self._attempts: dict[int, int] = {}  # failed leases per job
        self._resolved: set[int] = set()
        self._results: "queue.Queue[dict]" = queue.Queue()
        self._total: int | None = None  # set once drain starts
        self._done = False
        self._closed = False
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.counters["worker_connects"] = 0
        self._acceptor: threading.Thread | None = None
        if self.verbose:
            print(f"{self.name} master listening on "
                  f"{self.address[0]}:{self.address[1]}", flush=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    # -- queue + lease bookkeeping (all under self._lock) ---------------------

    def submit(self, job: SweepJob) -> None:
        super().submit(job)
        with self._cond:
            self._by_id[job.job_id] = job
            self._queue.append(job.job_id)
            self._cond.notify()

    def _checkout(self, conn: socket.socket, worker_id: str) -> SweepJob | None:
        """Next job for a requesting worker; blocks until drain starts
        and while the queue is empty but leases are pending; None once
        the grid is resolved."""
        with self._cond:
            while True:
                if self._queue and self._total is not None:
                    job_id = self._queue.pop(0)
                    self._leases[id(conn)] = _Lease(
                        job_id, worker_id,
                        time.monotonic() + self.lease_timeout, conn,
                    )
                    self.counters["jobs_dispatched"] += 1
                    return self._by_id[job_id]
                if self._done or self._closed:
                    return None
                self._cond.wait(0.2)

    def _mark_resolved_locked(self, job_id: int) -> None:
        self._resolved.add(job_id)
        if self._total is not None and len(self._resolved) >= self._total:
            self._done = True
            self._cond.notify_all()

    def _abandon_locked(self, job_id: int, message: str, worker_id: str = "") -> None:
        """Resolve a job with a status=error row."""
        job = self._by_id[job_id]
        self._results.put(error_row(
            job.config, job.rep, self.options.machine, message, worker_id=worker_id,
        ))
        self._mark_resolved_locked(job_id)
        if self.verbose:
            print(f"{self.name} master: job {job_id} abandoned ({message})", flush=True)

    def _revoke_locked(self, lease: _Lease, reason: str) -> None:
        """A lease failed (worker died / deadline passed): requeue the
        job, or give up with a status=error row after max_requeues."""
        if lease.job_id in self._resolved:
            return
        attempts = self._attempts.get(lease.job_id, 0) + 1
        self._attempts[lease.job_id] = attempts
        if attempts > self.max_requeues:
            self._abandon_locked(lease.job_id, f"{reason}; gave up after "
                                 f"{attempts} dispatch attempts", lease.worker_id)
        else:
            self.counters["jobs_requeued"] += 1
            self._queue.append(lease.job_id)
            self._cond.notify()
            if self.verbose:
                print(f"{self.name} master: job {lease.job_id} requeued ({reason})",
                      flush=True)

    def _abandon_unresolved(self, reason: str) -> None:
        """Every job still queued or leased becomes a status=error row."""
        with self._cond:
            self._queue.clear()
            for job_id in sorted(self._by_id.keys() - self._resolved):
                self._abandon_locked(job_id, reason)

    def _idle(self) -> None:
        """Housekeeping while drain waits for rows: expire overdue leases."""
        now = time.monotonic()
        stale: list[socket.socket] = []
        with self._cond:
            for key, lease in list(self._leases.items()):
                if lease.deadline <= now:
                    del self._leases[key]
                    self._revoke_locked(lease, "lease expired")
                    stale.append(lease.conn)
        for conn in stale:  # outside the lock: closing wakes the handler
            _shutdown(conn)

    # -- connection handling ---------------------------------------------------

    def start(self) -> None:
        """Start accepting workers, counting them in
        ``counters["worker_connects"]``.  :meth:`drain` calls it; a
        caller may call it first to wait for its workers.  Jobs are
        dispatched only once drain starts; earlier workers park."""
        with self._lock:
            if self._acceptor is None:
                self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
                self._acceptor.start()
                self._threads.append(self._acceptor)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    _shutdown(conn)
                    return
                self._conns.add(conn)
                self.counters["worker_connects"] += 1
                t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
                # start under the lock: drain/close join every listed thread
                t.start()
                self._threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        worker_id = ""
        graceful = False
        try:
            while True:
                msg = recv_message(conn)
                if msg is None:
                    return  # worker closed the connection
                mtype, payload = msg
                if mtype == HEARTBEAT:
                    continue
                if mtype == REQUEST_JOB:
                    worker_id = str((payload or {}).get("worker_id", worker_id))
                    job = self._checkout(conn, worker_id)
                    if job is None:
                        send_message(conn, NO_MORE_JOBS)
                        graceful = True
                        return
                    send_message(conn, JOB, {
                        "job_id": job.job_id,
                        "config": job.config,
                        "rep": job.rep,
                        "options": self.options,
                    })
                elif mtype == RESULT:
                    job_id = int(payload["job_id"])
                    with self._cond:
                        lease = self._leases.pop(id(conn), None)
                        if lease is not None and lease.job_id != job_id:
                            # a result for a job this conn no longer
                            # leases: keep the lease bookkeeping honest
                            self._leases[id(conn)] = lease
                        if job_id not in self._resolved:
                            self._results.put(dict(payload["row"]))
                            self._mark_resolved_locked(job_id)
                        # else: duplicate from a revoked lease — dropped
                else:
                    raise ProtocolError(
                        f"unexpected {MESSAGE_NAMES[mtype]} from worker"
                    )
        except (ProtocolError, OSError) as exc:
            if self.verbose:
                print(f"{self.name} master: worker {worker_id or '?'} dropped: {exc}",
                      flush=True)
        finally:
            with self._cond:
                lease = self._leases.pop(id(conn), None)
                if lease is not None:
                    self._revoke_locked(lease, f"worker {worker_id or '?'} disconnected")
                if worker_id and not graceful:
                    self.counters["worker_disconnects"] += 1
                self._conns.discard(conn)
            _shutdown(conn)

    # -- the driver side -------------------------------------------------------

    def drain(self) -> Iterator[dict]:
        with self._cond:
            if self._closed:
                raise ConfigError("socket executor already closed")
            self._total = len(self.jobs)
            if self._total == len(self._resolved):
                self._done = True
            self._cond.notify_all()
        self.start()
        yielded = 0
        total = len(self.jobs)
        while yielded < total:
            try:
                row = self._results.get(timeout=0.2)
            except queue.Empty:
                with self._lock:
                    if self._closed:
                        return
                self._idle()
                continue
            yielded += 1
            yield self._stamp(row)
        # grid resolved: let connected workers collect NO_MORE_JOBS
        with self._cond:
            self._done = True
            self._cond.notify_all()
        deadline = time.monotonic() + self.linger
        with self._lock:
            handlers = [t for t in self._threads if t is not self._acceptor]
        for t in handlers:
            t.join(timeout=max(0.0, deadline - time.monotonic()))

    def close(self) -> None:
        with self._cond:
            already = self._closed
            self._closed = True
            self._done = True
            self._cond.notify_all()
            conns = list(self._conns)
            threads = list(self._threads)
        if already:
            return
        # shutdown wakes the acceptor blocked in accept(); close alone does not
        _shutdown(self._listener)
        for conn in conns:
            _shutdown(conn)
        for t in threads:
            t.join(timeout=2.0)


# -- the worker side ----------------------------------------------------------

def _open(address: tuple[str, int]) -> socket.socket:
    """A TCP connection with a 5 s connect timeout.  A numeric IPv4
    host skips the resolver: ``create_connection``'s ``getaddrinfo``
    costs milliseconds on first use in every freshly forked worker."""
    try:
        socket.inet_pton(socket.AF_INET, address[0])
    except OSError:  # a host name (or IPv6): resolve it
        return socket.create_connection(address, timeout=5.0)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(5.0)
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


def _connect(address: tuple[str, int], wait: float) -> socket.socket | None:
    """Connect, retrying briefly (workers often start before the
    master binds); None when no master answers within ``wait``."""
    deadline = time.monotonic() + max(0.0, wait)
    while True:
        try:
            sock = _open(address)
            # RESULT + REQUEST_JOB are two small writes: Nagle stalls each job ~40 ms
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.2)


def _recv_reply(sock: socket.socket, heartbeat: float) -> tuple[int, object] | None:
    """Wait for the master's reply, emitting HEARTBEAT frames while
    parked; None when the master is gone (EOF / reset)."""
    while True:
        ready, _, _ = select.select([sock], [], [], heartbeat)
        if not ready:
            try:
                send_message(sock, HEARTBEAT)
            except OSError:
                return None
            continue
        # readable: the frame is in flight — bound the read so a hung
        # master cannot park us forever mid-frame
        sock.settimeout(30.0)
        try:
            return recv_message(sock)
        except OSError:
            return None
        finally:
            sock.settimeout(None)


def run_worker(
    host: str,
    port: int,
    *,
    heartbeat: float = 5.0,
    connect_wait: float = 10.0,
    verbose: bool = False,
) -> int:
    """The ``python -m repro.expt worker --connect host:port`` loop.

    Exit status: 0 when the sweep is over (NO_MORE_JOBS received, or no
    master is reachable — a late worker after shutdown is normal, not
    an error); 3 on a protocol violation.
    """
    sock = _connect((host, port), connect_wait)
    wid = worker_identity()
    if sock is None:
        print(f"worker {wid}: no master at {host}:{port} "
              "(sweep finished or not started); exiting", flush=True)
        return 0
    caches: dict[tuple, object] = {}
    done = 0
    try:
        with sock:
            while True:
                try:
                    send_message(sock, REQUEST_JOB, {"worker_id": wid})
                except OSError:
                    break  # master gone mid-request: sweep over
                msg = _recv_reply(sock, heartbeat)
                if msg is None:
                    break  # master gone: rows it recorded are safe
                mtype, payload = msg
                if mtype == NO_MORE_JOBS:
                    break
                if mtype != JOB:
                    raise ProtocolError(
                        f"unexpected {MESSAGE_NAMES[mtype]} from master"
                    )
                assert isinstance(payload, dict)
                options: RunOptions = payload["options"]
                job = SweepJob(int(payload["job_id"]), payload["config"],
                               int(payload["rep"]))
                cache_key = (options.reuse_work, options.cache_dir)
                if cache_key not in caches:
                    caches[cache_key] = options.make_cache()
                row = run_point(job, options, caches[cache_key])
                done += 1
                if verbose:
                    print(f"worker {wid}: job {job.job_id} -> {row['status']}",
                          flush=True)
                try:
                    send_message(sock, RESULT, {"job_id": job.job_id, "row": row})
                except OSError:
                    break  # master gone; the master will requeue on resume
    except ProtocolError as exc:
        print(f"worker {wid}: protocol error: {exc}", flush=True)
        return 3
    if verbose:
        print(f"worker {wid}: done ({done} jobs)", flush=True)
    return 0
