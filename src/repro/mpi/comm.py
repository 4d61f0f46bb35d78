"""Message-passing API and the in-process (threaded) substrate.

The mpi4py-style lowercase interface — ``send/recv/sendrecv/bcast/
scatter/gather/allgather/reduce/allreduce/barrier`` — is implemented
once, in :class:`CommBase`, over three transport primitives
(``_put/_get/_try_get`` on pickled payloads).  Two substrates plug in:

* **inproc** (this module): each rank is a Python thread; messages are
  pickled (ranks never share mutable state, exactly like real MPI
  address spaces) and delivered through per-rank mailboxes with
  MPI-style (source, tag) matching.  Deterministic and cheap — what
  the test suite pins itself to.
* **procs** (:mod:`repro.mpi.substrate`): each rank is a real process
  from the persistent worker pool; messages travel over shared-memory
  byte lanes, so CPU-bound ranks genuinely run in parallel.

Collectives are built over point-to-point with an internal tag space
(high bit set + a per-communicator collective sequence number), so they
never collide with user tags and stay correct even when ranks interleave
collectives with pt2pt traffic.

Per-rank traffic statistics (message and byte counts) are kept so
kernels' communication volume can be analyzed — our substitute for
watching real interconnect behaviour.  The blocked-recv backstop is
``REPRO_MPI_RECV_TIMEOUT`` seconds (default 60); expiry raises
:class:`~repro.errors.DeadlockError` carrying the pending (source, tag)
mailbox state.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import DeadlockError, MpiError

__all__ = [
    "MpiWorld",
    "CommBase",
    "Comm",
    "CommStats",
    "Request",
    "RecvTimeout",
    "ANY_SOURCE",
    "ANY_TAG",
    "RECV_TIMEOUT_ENV",
    "default_recv_timeout",
    "run_world",
]

ANY_SOURCE = -1
ANY_TAG = -1

_COLL_BIT = 1 << 30  # internal tags: _COLL_BIT | (seq << 4) | coll_id
_POLL_INTERVAL = 0.05  # seconds between deadlock-analysis polls

#: env override for the blocked-recv hard backstop (seconds)
RECV_TIMEOUT_ENV = "REPRO_MPI_RECV_TIMEOUT"
_RECV_TIMEOUT = 60.0


def default_recv_timeout() -> float:
    """The recv backstop: ``REPRO_MPI_RECV_TIMEOUT`` or 60 seconds."""
    env = os.environ.get(RECV_TIMEOUT_ENV)
    if env:
        try:
            value = float(env)
        except ValueError:
            raise MpiError(f"{RECV_TIMEOUT_ENV}={env!r} is not a number") from None
        if value > 0:
            return value
    return _RECV_TIMEOUT


@dataclass
class CommStats:
    """Per-rank traffic counters (pt2pt and collective internals alike)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    collectives: int = 0


@dataclass(frozen=True)
class RecvTimeout:
    """Structured diagnosis for a recv that hit the wall-clock backstop
    without the wait-for-graph analysis producing a verdict; carries the
    pending (source, tag) mailbox state at expiry."""

    rank: int
    source: int
    tag: int
    timeout: float
    pending: tuple[tuple[int, int], ...] = ()

    def describe(self) -> str:
        def fmt(v: int) -> str:
            return "any" if v == ANY_SOURCE else str(v)

        inbox = (
            ", ".join(f"(source={s}, tag={t})" for s, t in self.pending)
            if self.pending
            else "empty"
        )
        return (
            f"rank {self.rank}: recv(source={fmt(self.source)}, "
            f"tag={fmt(self.tag)}) timed out after {self.timeout:g}s — "
            f"unresolved deadlock? pending mailbox: {inbox}"
        )


class _Mailbox:
    """Pending messages of one rank, with (source, tag) matching."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: list[tuple[int, int, bytes]] = []

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._lock:
            self._pending.append((source, tag, payload))
            self._cond.notify_all()

    def _match(self, source: int, tag: int) -> int | None:
        for i, (s, t, _) in enumerate(self._pending):
            if (source == ANY_SOURCE or s == source) and (
                tag == ANY_TAG or t == tag
            ):
                return i
        return None

    def get(
        self,
        source: int,
        tag: int,
        timeout: float,
        *,
        world: "MpiWorld | None" = None,
        rank: int | None = None,
    ) -> tuple[int, int, bytes]:
        """Blocking matched pop.

        When ``world``/``rank`` are given, the wait is a poll loop: the
        rank registers itself in the world's blocked registry and, each
        time a poll interval elapses without a matching message, runs
        the wait-for-graph analysis — raising :class:`DeadlockError`
        with a diagnosis instead of sitting out the full timeout.  Poll
        intervals are staggered by rank so concurrent diagnoses rarely
        collide.
        """
        deadline = time.monotonic() + timeout
        poll = None
        if world is not None:
            poll = world.poll_interval * (1.0 + 0.13 * rank)
            world._set_blocked(rank, source, tag)
        timed_out = False
        with self._lock:
            try:
                while True:
                    i = self._match(source, tag)
                    if i is not None:
                        return self._pending.pop(i)
                    # diagnose only after this fresh match: a peer may put
                    # and finish between a timed-out wait and the relock
                    if timed_out:
                        report = world._diagnose(rank, source, tag, self)
                        if report is not None:
                            raise DeadlockError(report)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise DeadlockError(RecvTimeout(
                            rank=-1 if rank is None else rank,
                            source=source,
                            tag=tag,
                            timeout=timeout,
                            pending=tuple((s, t) for s, t, _ in self._pending),
                        ))
                    wait = remaining if poll is None else min(poll, remaining)
                    timed_out = not self._cond.wait(timeout=wait) and world is not None
            finally:
                if world is not None:
                    world._clear_blocked(rank)

    def try_get(self, source: int, tag: int) -> tuple[int, int, bytes] | None:
        """Non-blocking probe+pop (backs Request.test)."""
        with self._lock:
            i = self._match(source, tag)
            return self._pending.pop(i) if i is not None else None


class Request:
    """Handle for a non-blocking operation (mpi4py-style lowercase API).

    ``isend`` requests are complete immediately (sends are buffered);
    ``irecv`` requests complete when a matching message is consumed via
    :meth:`test` or :meth:`wait`.
    """

    def __init__(self, comm: "CommBase | None" = None, source: int = ANY_SOURCE,
                 tag: int = ANY_TAG, payload: Any = None, done: bool = False):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._payload = payload
        self._done = done

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: (done, payload_or_None)."""
        if self._done:
            return True, self._payload
        got = self._comm._try_get(self._source, self._tag)
        if got is None:
            return False, None
        self._comm._count_recv()
        self._payload = pickle.loads(got[2])
        self._done = True
        return True, self._payload

    def wait(self) -> Any:
        """Block until completion; returns the received object (or the
        sent one, for isend requests)."""
        if self._done:
            return self._payload
        _, _, payload = self._comm._get(self._source, self._tag)
        self._comm._count_recv()
        self._payload = pickle.loads(payload)
        self._done = True
        return self._payload


class MpiWorld:
    """A set of in-process ranks with their mailboxes.

    Beyond delivery, the world tracks which ranks are blocked in a
    receive (``rank -> (source, tag)``) and which have terminated, so a
    blocked rank can run the wait-for-graph deadlock analysis of
    :mod:`repro.analyze.deadlock` instead of waiting out the timeout.
    """

    def __init__(
        self,
        size: int,
        recv_timeout: float | None = None,
        poll_interval: float = _POLL_INTERVAL,
    ):
        if size < 1:
            raise MpiError(f"world size must be >= 1, got {size}")
        self.size = size
        self.recv_timeout = (
            default_recv_timeout() if recv_timeout is None else recv_timeout
        )
        self.poll_interval = poll_interval
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.stats = [CommStats() for _ in range(size)]
        self._dl_lock = threading.Lock()
        self._blocked: dict[int, tuple[int, int]] = {}
        self._finished: set[int] = set()

    def comm(self, rank: int) -> "Comm":
        if not (0 <= rank < self.size):
            raise MpiError(f"rank {rank} out of world of size {self.size}")
        return Comm(self, rank)

    # -- deadlock analysis ----------------------------------------------------
    def _set_blocked(self, rank: int, source: int, tag: int) -> None:
        with self._dl_lock:
            self._blocked[rank] = (source, tag)

    def _clear_blocked(self, rank: int) -> None:
        with self._dl_lock:
            self._blocked.pop(rank, None)

    def mark_finished(self, rank: int) -> None:
        """Record that ``rank``'s thread terminated (normally or not) and
        wake blocked ranks so they re-run the analysis promptly."""
        with self._dl_lock:
            self._finished.add(rank)
        for mb in self.mailboxes:
            with mb._lock:
                mb._cond.notify_all()

    def _peer_stuck(self, peer: int, source: int, tag: int) -> bool | None:
        """Is ``peer`` blocked with no matching pending message?

        Returns None (undecidable: its mailbox lock is busy, so it is
        doing *something*) rather than blocking — lock order here is
        own-mailbox -> world -> peer-mailbox, and a blocking acquire
        could deadlock the detector itself.
        """
        mb = self.mailboxes[peer]
        if not mb._lock.acquire(blocking=False):
            return None
        try:
            return mb._match(source, tag) is None
        finally:
            mb._lock.release()

    def _diagnose(self, rank: int, source: int, tag: int, mailbox: "_Mailbox"):
        """Snapshot the blocked registry and run the wait-for-graph
        analysis for ``rank`` (which holds ``mailbox``'s lock and has
        verified no matching message is pending).  Returns a
        DeadlockReport, or None when no deadlock is provable yet."""
        from repro.analyze.deadlock import PendingMsg, RankWait, diagnose

        with self._dl_lock:
            registry = dict(self._blocked)
            finished = frozenset(self._finished)
        waits = {}
        for r, (s, t) in registry.items():
            if r == rank:
                waits[r] = RankWait(r, s, t)
            elif self._peer_stuck(r, s, t):
                waits[r] = RankWait(r, s, t)
            # undecidable / has a match: treated as active (omitted)
        unmatched = tuple(PendingMsg(s, t) for s, t, _ in mailbox._pending)
        return diagnose(rank, waits, finished, self.size, unmatched)


class CommBase:
    """The mpi4py-style lowercase interface, substrate-agnostic.

    Subclasses provide the transport: ``_put(dest, tag, payload)`` (raw
    buffered enqueue, never counted in stats), ``_get(source, tag)``
    (blocking matched receive, deadlock analysis armed) and
    ``_try_get`` (non-blocking probe+pop); plus a ``stats`` property.
    Everything else — pt2pt bookkeeping, the collectives and their
    internal tag space, traffic accounting — is shared, so the two
    substrates cannot drift apart semantically.
    """

    rank: int
    size: int

    # -- transport primitives (substrate-specific) ---------------------------
    def _put(self, dest: int, tag: int, payload: Any) -> None:
        raise NotImplementedError

    def _get(self, source: int, tag: int) -> tuple[int, int, bytes]:
        raise NotImplementedError

    def _try_get(self, source: int, tag: int) -> tuple[int, int, bytes] | None:
        raise NotImplementedError

    @property
    def stats(self) -> CommStats:
        raise NotImplementedError

    # -- traffic accounting (hooks for substrate telemetry) ------------------
    def _count_sent(self, nbytes: int) -> None:
        st = self.stats
        st.messages_sent += 1
        st.bytes_sent += nbytes

    def _count_recv(self) -> None:
        self.stats.messages_received += 1

    def _count_collective(self) -> None:
        self.stats.collectives += 1

    # -- point-to-point ------------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise MpiError(f"{what} rank {peer} out of world of size {self.size}")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send (never deadlocks): the message is pickled and
        enqueued at the destination."""
        self._check_peer(dest, "destination")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._count_sent(len(payload))
        self._put(dest, tag, payload)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive with (source, tag) matching."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        _, _, payload = self._get(source, tag)
        self._count_recv()
        return pickle.loads(payload)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (buffered: completes immediately)."""
        self.send(obj, dest, tag)
        return Request(done=True, payload=obj)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive: returns a :class:`Request` to test/wait."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        return Request(self, source, tag)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int | None = None,
        sendtag: int = 0,
        recvtag: int | None = None,
    ) -> Any:
        """Combined send+receive (deadlock-free: sends are buffered)."""
        self.send(obj, dest, sendtag)
        return self.recv(dest if source is None else source,
                         sendtag if recvtag is None else recvtag)

    # -- collectives ----------------------------------------------------------
    def _coll_tag(self, coll_id: int) -> int:
        tag = _COLL_BIT | (self._coll_seq << 4) | coll_id
        self._coll_seq += 1
        self._count_collective()
        return tag

    def barrier(self) -> None:
        """All ranks synchronize (gather-to-0 then broadcast)."""
        tag = self._coll_tag(0)
        if self.rank == 0:
            for src in range(1, self.size):
                self._get(src, tag)
            for dst in range(1, self.size):
                self._put(dst, tag, b"")
        else:
            self._put(0, tag, b"")
            self._get(0, tag)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_peer(root, "root")
        tag = self._coll_tag(1)
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
                    self._count_sent(len(payload))
                    self._put(dst, tag, payload)
            return obj
        _, _, payload = self._get(root, tag)
        self._count_recv()
        return pickle.loads(payload)

    def scatter(self, objs: list | None, root: int = 0) -> Any:
        self._check_peer(root, "root")
        tag = self._coll_tag(2)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise MpiError(
                    f"scatter at root needs exactly {self.size} items, "
                    f"got {None if objs is None else len(objs)}"
                )
            mine = objs[root]
            for dst in range(self.size):
                if dst != root:
                    payload = pickle.dumps(objs[dst], protocol=pickle.HIGHEST_PROTOCOL)
                    self._count_sent(len(payload))
                    self._put(dst, tag, payload)
            return mine
        _, _, payload = self._get(root, tag)
        self._count_recv()
        return pickle.loads(payload)

    def gather(self, obj: Any, root: int = 0) -> list | None:
        self._check_peer(root, "root")
        tag = self._coll_tag(3)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    _, _, payload = self._get(src, tag)
                    self._count_recv()
                    out[src] = pickle.loads(payload)
            return out
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._count_sent(len(payload))
        self._put(root, tag, payload)
        return None

    def allgather(self, obj: Any) -> list:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        gathered = self.gather(obj, root=root)
        if self.rank != root:
            return None
        acc = gathered[0]
        for v in gathered[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        acc = self.reduce(obj, op, root=0)
        return self.bcast(acc, root=0)

    # -- shared windows -------------------------------------------------------
    def shared_window(self, arr, root: int = 0):
        """Node-local zero-copy array broadcast (pyuvsim-style).

        The root rank contributes ``arr``; every rank gets back a view
        of *one* shared buffer — writable at the root, read-only
        everywhere else — instead of ``size`` pickled copies.  Counted
        as one collective; no per-rank message bytes (that is the whole
        point).  Substrate-specific: shared memory under ``procs``, a
        direct read-only view under ``inproc``.
        """
        raise NotImplementedError


class Comm(CommBase):
    """One rank's view of the threaded world."""

    def __init__(self, world: MpiWorld, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.size
        self._coll_seq = 0

    # -- transport over the world's mailboxes --------------------------------
    def _put(self, dest: int, tag: int, payload: Any) -> None:
        self.world.mailboxes[dest].put(self.rank, tag, payload)

    def _get(self, source: int, tag: int) -> tuple[int, int, bytes]:
        """Blocking matched receive from this rank's mailbox, with the
        deadlock analysis armed."""
        return self.world.mailboxes[self.rank].get(
            source, tag, self.world.recv_timeout, world=self.world, rank=self.rank
        )

    def _try_get(self, source: int, tag: int) -> tuple[int, int, bytes] | None:
        return self.world.mailboxes[self.rank].try_get(source, tag)

    @property
    def stats(self) -> CommStats:
        return self.world.stats[self.rank]

    def shared_window(self, arr, root: int = 0):
        """Inproc windows share the interpreter: the root's array is
        handed to every rank directly (no pickling), read-only views
        for non-roots — the same contract the procs substrate honours
        through POSIX shared memory."""
        self._check_peer(root, "root")
        tag = self._coll_tag(7)
        if self.rank == root:
            if arr is None:
                raise MpiError("shared_window root must contribute an array")
            for dst in range(self.size):
                if dst != root:
                    self._put(dst, tag, arr)  # by reference: zero-copy
            return arr
        _, _, shared = self._get(source=root, tag=tag)
        view = shared.view()
        view.setflags(write=False)
        return view


def run_world(
    size: int,
    fn: Callable[[Comm, int], Any],
    *,
    recv_timeout: float | None = None,
) -> list[Any]:
    """Run ``fn(comm, rank)`` on every rank of a fresh threaded world;
    returns the per-rank results in rank order.

    Any rank raising makes :func:`run_world` raise :class:`MpiError`
    carrying all per-rank failures (after every thread has stopped).
    """
    world = MpiWorld(size, recv_timeout=recv_timeout)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def target(rank: int) -> None:
        try:
            results[rank] = fn(world.comm(rank), rank)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            with lock:
                errors.append((rank, exc))
        finally:
            # lets blocked peers diagnose "waiting on a finished rank"
            world.mark_finished(rank)

    threads = [
        threading.Thread(target=target, args=(r,), name=f"mpi-rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        errors.sort()
        details = "; ".join(f"rank {r}: {type(e).__name__}: {e}" for r, e in errors)
        raise MpiError(f"{len(errors)} rank(s) failed: {details}") from errors[0][1]
    return results
