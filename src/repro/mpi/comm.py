"""The MPI communicator: one lane transport, ranks on threads or processes.

The mpi4py-style lowercase interface — ``send/recv/isend/irecv/sendrecv/
bcast/scatter/gather/allgather/reduce/allreduce/barrier`` plus
``shared_window`` — is one class, :class:`Comm`, over per-(src, dst)
single-producer/single-consumer **byte lanes**.  Each lane has a write
count its sender only ever increases and a read count its receiver
only ever increases; the bytes between them are the lane's contents,
so neither side needs a lock and none of it is lost: a sender whose
lane is full chunks its frame and, while waiting for space, drains its
own inbound lanes (preserving the buffered-send guarantee that
``sendrecv`` pairs never deadlock).  A rank's lane to itself carries
its self-sends.

Where the lanes live decides how the ranks are hosted:

* :func:`run_world` (``mpi_backend="inproc"``): each rank is a thread
  of this interpreter and the lanes are plain NumPy arrays — cheap, and
  frame hooks and race checks can reach into every rank;
* :class:`~repro.mpi.substrate.MpiPool` (``"procs"``): each rank is a
  process of a persistent pool and the lanes live in POSIX shared
  memory, so CPU-bound ranks genuinely run in parallel.

Messages are pickled either way, so ranks never share mutable state,
exactly like real MPI address spaces.  Collectives are built over
point-to-point with an internal tag space (high bit set + a
per-communicator collective sequence number), so they never collide
with user tags and stay correct when ranks interleave collectives with
pt2pt traffic.

A **control block** beside the lanes carries the world's abort word
plus a per-rank registry (state, awaited source/tag, drain progress).
A blocked rank snapshots the registry, proves peers quiescent through
lane-count equality under a progress seqlock, and runs the
wait-for-graph analysis of :mod:`repro.analyze.deadlock`, raising
:class:`~repro.errors.DeadlockError` with a diagnosis instead of
sitting out the recv backstop (``REPRO_MPI_RECV_TIMEOUT`` seconds,
default 60; expiry raises a :class:`RecvTimeout` diagnosis carrying the
pending (source, tag) state).  A rank that raises flips the abort
word: its blocked peers unwind within a poll interval and the world
fails with ``N rank(s) failed: rank r: ...; rank p: aborted by peer``.

Per-rank traffic statistics (message and byte counts) are kept so
kernels' communication volume can be analyzed — our substitute for
watching real interconnect behaviour.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import DeadlockError, MpiError
from repro.util.workerpool import alloc_block, attach_block, defuse, unlink_block

__all__ = [
    "Comm",
    "CommStats",
    "Request",
    "RecvTimeout",
    "abort_world",
    "ANY_SOURCE",
    "ANY_TAG",
    "LANE_BYTES",
    "RECV_TIMEOUT_ENV",
    "default_recv_timeout",
    "run_world",
    "world_arrays",
    "world_failure",
    "world_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1

_COLL_BIT = 1 << 30  # internal tags: _COLL_BIT | (seq << 4) | coll_id

#: ring bytes per (src, dst) lane; larger messages stream through in chunks
LANE_BYTES = 1 << 20
_LANE_HDR = 16  # a lane's int64 [write_count, read_count] header

_FRAME = struct.Struct("<qq")  # (tag, payload_length) framing header

_SPIN = 0.0002  # lane-wait granularity (seconds)
#: a blocked receive first only yields the CPU between polls, for at most
#: this long (seconds), then sleeps ``_SPIN`` a poll: a reply that lands
#: within the window is picked up without paying a timer wakeup
_YIELD_WINDOW = 0.001
_DIAG_INTERVAL = 0.05  # seconds between deadlock-analysis attempts

# control-block words
_ABORT = 0  # 1 => world is aborting
_ABORT_RANK = 1  # who flipped the abort word
_CTRL_HEAD = 2
# per-rank registry words, at _CTRL_HEAD + rank * _REG_WORDS
_REG_STATE = 0  # 0 active, 1 blocked, 2 finished
_REG_SOURCE = 1
_REG_TAG = 2
_REG_PROGRESS = 3  # seqlock: odd while a drain is rewriting lane cursors
_REG_WORDS = 4

_ACTIVE, _BLOCKED, _FINISHED = 0, 1, 2


def _reg(rank: int) -> int:
    """Index of ``rank``'s first registry word in the control block."""
    return _CTRL_HEAD + rank * _REG_WORDS


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


def world_nbytes(size: int) -> tuple[int, int]:
    """Bytes of a world's control block and of its lane block."""
    return (_CTRL_HEAD + _REG_WORDS * size) * 8, size * size * (_LANE_HDR + LANE_BYTES)


def world_arrays(size: int, ctrl_mem=None, lane_mem=None):
    """A world's ``(ctrl, lane_hdr, lane_buf)`` arrays.

    Views of ``ctrl_mem``/``lane_mem`` (a process pool's shared blocks)
    or, when none are given, of fresh zeroed memory (a threaded world).
    """
    ctrl_n, lane_n = world_nbytes(size)
    if ctrl_mem is None:
        ctrl_mem, lane_mem = np.zeros(ctrl_n, np.uint8), np.zeros(lane_n, np.uint8)
    nlanes = size * size
    return (
        np.ndarray((ctrl_n // 8,), dtype=np.int64, buffer=ctrl_mem),
        np.ndarray((nlanes, 2), dtype=np.int64, buffer=lane_mem),
        np.ndarray((nlanes, LANE_BYTES), dtype=np.uint8, buffer=lane_mem,
                   offset=nlanes * _LANE_HDR),
    )


def abort_world(ctrl: np.ndarray, rank: int) -> None:
    """Flip the abort word of the world ``ctrl`` controls, blaming ``rank``."""
    ctrl[_ABORT_RANK] = rank
    ctrl[_ABORT] = 1


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
    pending (source, tag) state at expiry."""

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
            f"unresolved deadlock? unmatched frames drained from its lanes: {inbox}"
        )


class _WorldAborted(MpiError):
    """Raised inside a rank when the world's abort word flips."""


class Request:
    """Handle for a non-blocking operation (mpi4py-style lowercase API).

    ``isend`` requests are complete immediately (sends are buffered);
    ``irecv`` requests complete when a matching message is consumed via
    :meth:`test` or :meth:`wait`.
    """

    def __init__(self, comm: "Comm | None" = None, source: int = ANY_SOURCE,
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
        self._comm.stats.messages_received += 1
        self._payload = pickle.loads(got[2])
        self._done = True
        return True, self._payload

    def wait(self) -> Any:
        """Block until completion; returns the received object (or the
        sent one, for isend requests)."""
        if not self._done:
            self._payload = self._comm._recv_obj(self._source, self._tag)
            self._done = True
        return self._payload


class Comm:
    """One rank's communicator over the world's lanes and control block
    (the arrays of :func:`world_arrays`)."""

    def __init__(
        self,
        rank: int,
        size: int,
        ctrl: np.ndarray,
        lane_hdr: np.ndarray,
        lane_buf: np.ndarray,
        recv_timeout: float,
        window_prefix: str,
    ):
        self.rank = rank
        self.size = size
        self.stats = CommStats()
        self._coll_seq = 0
        self._ctrl = ctrl
        self._hdr = lane_hdr  # (size*size, 2) int64: [write_count, read_count]
        self._buf = lane_buf  # (size*size, LANE_BYTES) uint8 payload rings
        self._recv_timeout = recv_timeout
        self._window_prefix = window_prefix
        self._window_seq = 0
        #: frames drained but not yet matched: (source, tag, payload)
        self._pending: list[tuple[int, int, bytes]] = []
        #: partially-drained frame bytes, per source rank
        self._partial = [bytearray() for _ in range(size)]

    # -- a rank's life --------------------------------------------------------
    def _run(self, fn: Callable[["Comm", int], Any]) -> tuple[str, Any]:
        """Run ``fn(self, rank)`` to this rank's end.

        Returns ``("result", value)``, ``("aborted", exc)`` when a peer's
        abort unwound the rank, or ``("error", exc)`` after flipping the
        abort word.  Either way the rank is then marked finished for its
        peers' deadlock analysis.
        """
        try:
            return "result", fn(self, self.rank)
        except _WorldAborted as exc:
            return "aborted", exc
        except BaseException as exc:  # noqa: BLE001 - reported by the world
            abort_world(self._ctrl, self.rank)
            return "error", exc
        finally:
            self._set_state(_FINISHED)

    def _set_state(self, state: int, source: int = 0, tag: int = 0) -> None:
        base = _reg(self.rank)
        self._ctrl[base + _REG_SOURCE] = source
        self._ctrl[base + _REG_TAG] = tag
        self._ctrl[base + _REG_STATE] = state

    def _check_abort(self) -> None:
        if self._ctrl[_ABORT]:
            raise _WorldAborted(
                f"MPI world aborted (by rank {int(self._ctrl[_ABORT_RANK])})"
            )

    # -- lane transport -------------------------------------------------------
    def _put(self, dest: int, tag: int, payload: bytes) -> None:
        """Chunked lossless write into the (rank -> dest) lane.

        When the lane is full the sender spins briefly, draining its own
        inbound lanes meanwhile — a full lane therefore cannot deadlock
        two ranks sending to each other (or a rank sending to itself),
        preserving the buffered-send semantics the collectives assume.
        """
        view = np.frombuffer(_FRAME.pack(tag, len(payload)) + payload, dtype=np.uint8)
        lane = self.rank * self.size + dest
        hdr = self._hdr[lane]
        buf = self._buf[lane]
        off = 0
        deadline = time.monotonic() + self._recv_timeout
        while off < len(view):
            write, read = int(hdr[0]), int(hdr[1])
            space = LANE_BYTES - (write - read)
            if space <= 0:
                self._check_abort()
                self._drain()
                if time.monotonic() >= deadline:
                    raise MpiError(
                        f"rank {self.rank}: send to {dest} stalled for "
                        f"{self._recv_timeout:g}s (lane full, receiver not "
                        "draining) — deadlock or dead peer?"
                    )
                time.sleep(_SPIN)
                continue
            n = min(space, len(view) - off)
            pos = write % LANE_BYTES
            first = min(n, LANE_BYTES - pos)
            buf[pos:pos + first] = view[off:off + first]
            if n > first:
                buf[:n - first] = view[off + first:off + n]
            hdr[0] = write + n  # publish after the payload
            off += n

    def _drain(self) -> bool:
        """Move every inbound lane's available bytes into local frames.

        Guarded by the registry's progress seqlock (odd while cursors
        move) so a remote deadlock diagnoser can tell "nothing arrived
        since this rank's last failed scan" from "caught mid-drain".
        Returns True when at least one complete frame was delivered.
        """
        base = _reg(self.rank)
        delivered = False
        for src in range(self.size):
            lane = src * self.size + self.rank
            hdr = self._hdr[lane]
            write, read = int(hdr[0]), int(hdr[1])
            avail = write - read
            if avail <= 0:
                continue
            self._ctrl[base + _REG_PROGRESS] += 1  # odd: drain in flight
            buf = self._buf[lane]
            pos = read % LANE_BYTES
            first = min(avail, LANE_BYTES - pos)
            chunk = bytes(buf[pos:pos + first])
            if avail > first:
                chunk += bytes(buf[:avail - first])
            hdr[1] = write  # consume before parsing
            partial = self._partial[src]
            partial += chunk
            while len(partial) >= _FRAME.size:
                tag, length = _FRAME.unpack_from(partial)
                if len(partial) < _FRAME.size + length:
                    break
                payload = bytes(partial[_FRAME.size:_FRAME.size + length])
                del partial[:_FRAME.size + length]
                self._pending.append((src, tag, payload))
                delivered = True
            if delivered:
                # a fresh frame may satisfy the pending recv: unblock
                # *inside* the seqlock so diagnosers never see a stale
                # "blocked" paired with already-drained lanes
                self._ctrl[base + _REG_STATE] = _ACTIVE
            self._ctrl[base + _REG_PROGRESS] += 1  # even: quiescent again
        return delivered

    def _match_pop(self, source: int, tag: int) -> tuple[int, int, bytes] | None:
        for i, (s, t, _) in enumerate(self._pending):
            if (source == ANY_SOURCE or s == source) and (
                tag == ANY_TAG or t == tag
            ):
                return self._pending.pop(i)
        return None

    def _try_get(self, source: int, tag: int) -> tuple[int, int, bytes] | None:
        """Non-blocking probe+pop (backs Request.test)."""
        self._drain()
        return self._match_pop(source, tag)

    def _get(self, source: int, tag: int) -> tuple[int, int, bytes]:
        """Blocking matched receive, with the deadlock analysis armed."""
        self._drain()
        got = self._match_pop(source, tag)
        if got is not None:
            return got
        start = time.monotonic()
        deadline = start + self._recv_timeout
        yield_until = start + _YIELD_WINDOW
        # stagger diagnosis polls by rank so concurrent diagnoses rarely collide
        next_diag = start + _DIAG_INTERVAL * (1.0 + 0.13 * self.rank)
        self._set_state(_BLOCKED, source, tag)
        try:
            while True:
                self._check_abort()
                if self._drain():
                    got = self._match_pop(source, tag)
                    if got is not None:
                        return got
                    # new frames, but none matched: arm the registry again
                    self._set_state(_BLOCKED, source, tag)
                now = time.monotonic()
                if now >= deadline:
                    # last-instant arrivals must win over the backstop
                    if self._drain():
                        got = self._match_pop(source, tag)
                        if got is not None:
                            return got
                    raise DeadlockError(RecvTimeout(
                        rank=self.rank, source=source, tag=tag,
                        timeout=self._recv_timeout,
                        pending=tuple((s, t) for s, t, _ in self._pending),
                    ))
                if now >= next_diag:
                    report = self._diagnose(source, tag)
                    if report is not None:
                        # a peer that raised finished after flipping the
                        # abort word: its error, not this wait, is the story
                        self._check_abort()
                        raise DeadlockError(report)
                    next_diag = now + _DIAG_INTERVAL
                time.sleep(0.0 if now < yield_until else _SPIN)
        finally:
            base = _reg(self.rank)
            if self._ctrl[base + _REG_STATE] == _BLOCKED:
                self._ctrl[base + _REG_STATE] = _ACTIVE

    # -- wait-for-graph analysis ----------------------------------------------
    def _drained(self, rank: int) -> bool:
        """Has every byte sent to ``rank`` (itself included) been read?"""
        hdr = self._hdr[rank::self.size]  # lanes (src, rank) for every src
        return bool(np.array_equal(hdr[:, 0], hdr[:, 1]))

    def _peer_stuck(self, peer: int) -> bool:
        """Is ``peer`` provably blocked with nothing left to scan?

        True only when the peer is flagged blocked, every lane into it
        is fully drained, and its progress seqlock is even and unchanged
        around those reads — i.e. its last full scan saw everything ever
        sent to it and matched nothing.  Any concurrent movement makes
        this undecidable (False): the caller just retries.
        """
        base = _reg(peer)
        p1 = int(self._ctrl[base + _REG_PROGRESS])
        if p1 % 2 or self._ctrl[base + _REG_STATE] != _BLOCKED:
            return False
        if not self._drained(peer):
            return False  # undrained traffic: the peer has work to do
        if int(self._ctrl[base + _REG_PROGRESS]) != p1:
            return False
        return self._ctrl[base + _REG_STATE] == _BLOCKED

    def _diagnose(self, source: int, tag: int):
        """Snapshot the registry and run the wait-for-graph analysis for
        this (blocked) rank.  Returns a DeadlockReport, or None when no
        deadlock is provable yet."""
        from repro.analyze.deadlock import PendingMsg, RankWait, diagnose

        waits = {self.rank: RankWait(self.rank, source, tag)}
        finished = set()
        for r in range(self.size):
            if r == self.rank:
                continue
            base = _reg(r)
            state = int(self._ctrl[base + _REG_STATE])
            if state == _FINISHED:
                finished.add(r)
            elif state == _BLOCKED:
                s = int(self._ctrl[base + _REG_SOURCE])
                t = int(self._ctrl[base + _REG_TAG])
                if self._peer_stuck(r):
                    waits[r] = RankWait(r, s, t)
        # Soundness: the snapshot above is only trustworthy if *we* have
        # nothing left to scan.  A frame that landed in one of our lanes
        # after the last drain (say, from a peer that then finished, or
        # the send half of a peer now blocked in its recv half) refutes
        # any verdict — bail out and let the caller drain it first.
        # Checked *after* the state reads: a peer's payload bytes are
        # written before its registry flips, so "state seen, lane still
        # empty" proves nothing was in flight.
        if not self._drained(self.rank):
            return None
        unmatched = tuple(PendingMsg(s, t) for s, t, _ in self._pending)
        return diagnose(self.rank, waits, finished, self.size, unmatched)

    # -- point-to-point -------------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise MpiError(f"{what} rank {peer} out of world of size {self.size}")

    def _send_obj(self, obj: Any, dest: int, tag: int) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(payload)
        self._put(dest, tag, payload)

    def _recv_obj(self, source: int, tag: int) -> Any:
        _, _, payload = self._get(source, tag)
        self.stats.messages_received += 1
        return pickle.loads(payload)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send (never deadlocks): the message is pickled and
        enqueued at the destination."""
        self._check_peer(dest, "destination")
        self._send_obj(obj, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive with (source, tag) matching."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        return self._recv_obj(source, tag)

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
        self.stats.collectives += 1
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
                    self._send_obj(obj, dst, tag)
            return obj
        return self._recv_obj(root, tag)

    def scatter(self, objs: list | None, root: int = 0) -> Any:
        self._check_peer(root, "root")
        tag = self._coll_tag(2)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise MpiError(
                    f"scatter at root needs exactly {self.size} items, "
                    f"got {None if objs is None else len(objs)}"
                )
            for dst in range(self.size):
                if dst != root:
                    self._send_obj(objs[dst], dst, tag)
            return objs[root]
        return self._recv_obj(root, tag)

    def gather(self, obj: Any, root: int = 0) -> list | None:
        self._check_peer(root, "root")
        tag = self._coll_tag(3)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self._recv_obj(src, tag)
            return out
        self._send_obj(obj, root, tag)
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
        """Node-local zero-copy array broadcast (pyuvsim-style
        ``shared_mem_bcast``).

        The root copies ``arr`` into a fresh shared-memory block and
        broadcasts only its (name, shape, dtype); every rank gets back a
        view of that *one* buffer — writable at the root, read-only
        everywhere else — instead of ``size`` pickled copies.  After
        every peer has acknowledged its attach the root unlinks the
        name: mappings keep the memory alive for every live view, and a
        rank dying later cannot leak the segment.

        Stats cost: exactly one collective, zero message bytes — sharing
        memory instead of copying it is the whole point, and the
        counters say so.
        """
        self._check_peer(root, "root")
        tag = self._coll_tag(7)  # window metadata
        ack = tag + 1  # attach acknowledgements (coll_id slot 8)
        if self.rank == root:
            if arr is None:
                raise MpiError("shared_window root must contribute an array")
            arr = np.ascontiguousarray(arr)
            self._window_seq += 1
            shm = alloc_block(f"{self._window_prefix}r{self.rank}w",
                              self._window_seq, arr.nbytes)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            meta = pickle.dumps((shm.name, arr.shape, arr.dtype.str),
                                protocol=pickle.HIGHEST_PROTOCOL)
            try:
                for dst in range(self.size):
                    if dst != root:
                        self._put(dst, tag, meta)
                for src in range(self.size):
                    if src != root:
                        self._get(src, ack)
            finally:
                unlink_block(shm.name)  # every peer attached, or the world aborts
            return view
        name, shape, dtype = pickle.loads(self._get(root, tag)[2])
        shm = attach_block(name)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        defuse(shm)  # the mapping now lives exactly as long as the view
        view.setflags(write=False)
        self._put(root, ack, b"")
        return view


def world_failure(errors: list[tuple[int, str]], aborted: list[int]) -> MpiError:
    """The error of a world whose ranks raised: each ``(rank, detail)``
    in rank order, then the ranks the abort unwound."""
    details = "; ".join(f"rank {r}: {d}" for r, d in sorted(errors))
    details += "".join(f"; rank {r}: aborted by peer" for r in sorted(aborted))
    return MpiError(f"{len(errors)} rank(s) failed: {details}")


def run_world(
    size: int,
    fn: Callable[[Comm, int], Any],
    *,
    recv_timeout: float | None = None,
) -> list[Any]:
    """Run ``fn(comm, rank)`` on every rank of a fresh threaded world;
    returns the per-rank results in rank order.

    The ranks are threads of this interpreter over in-process lanes.  A
    rank raising aborts the world: once every thread has stopped,
    :class:`MpiError` names each failed rank and each rank the abort
    unwound, raised from the lowest failed rank's exception.
    """
    if size < 1:
        raise MpiError(f"world size must be >= 1, got {size}")
    timeout = default_recv_timeout() if recv_timeout is None else recv_timeout
    arrays = world_arrays(size)
    # window blocks are named like the process pool's, so leak checks see both
    prefix = f"ezmpi_{os.getpid()}_{os.urandom(3).hex()}_"
    outcomes: list[tuple[str, Any]] = [("result", None)] * size

    def target(rank: int) -> None:
        outcomes[rank] = Comm(rank, size, *arrays, timeout, prefix)._run(fn)

    threads = [
        threading.Thread(target=target, args=(r,), name=f"mpi-rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    errors = [(r, exc) for r, (kind, exc) in enumerate(outcomes) if kind == "error"]
    if errors:
        aborted = [r for r, (kind, _) in enumerate(outcomes) if kind == "aborted"]
        details = [(r, f"{type(e).__name__}: {e}") for r, e in errors]
        raise world_failure(details, aborted) from errors[0][1]
    return [value for _, value in outcomes]
