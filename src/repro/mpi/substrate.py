"""The real-process MPI substrate: ranks from a persistent worker pool.

Each rank is a process spawned once and reused across worlds — a
:class:`~repro.util.workerpool.WorkerPool`, sharing spawn, teardown,
the worker loop, the registry and the exit hook with the procs tile
pool; point-to-point traffic and the
collectives built on it travel over per-(src, dst) single-producer/
single-consumer **byte lanes** in one POSIX shared-memory block — the
same monotonic write-count discipline as the telemetry rings of
:mod:`repro.telemetry.ring`, but lossless: a sender whose lane is full
chunks its frame and, while waiting for space, drains its own inbound
lanes (preserving the buffered-send guarantee that ``sendrecv`` pairs
never deadlock).

A shared **control block** carries the world's abort word plus a
per-rank registry (state, awaited source/tag, drain progress) — the
cross-process replica of the threaded world's blocked registry, so the
wait-for-graph deadlock analysis of :mod:`repro.analyze.deadlock` keeps
working: a blocked rank snapshots the registry, proves peers quiescent
through lane-count equality under a progress seqlock, and raises
:class:`~repro.errors.DeadlockError` with the same reports the inproc
substrate produces.

Failure is loud and bounded, pyuvsim-style: a rank raising (or dying
outright — SIGKILL included) flips the abort word; every blocked peer
notices within a poll interval and unwinds, the master reaps the world
and raises a clean :class:`~repro.errors.ExecutionError` instead of
letting the survivors sit out the 60 s recv backstop.  Message counts
and byte volumes are each rank's :class:`~repro.mpi.comm.CommStats`,
returned with its result; the launcher sums them into the ``*_world``
counters.

``shared_window()`` gives kernels the pyuvsim ``shared_mem_bcast``
pattern: the root allocates one shared block, peers attach read-only
views, and the name is unlinked as soon as everyone is attached so an
aborted world cannot leak ``/dev/shm`` segments.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import time
import traceback
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from repro.errors import DeadlockError, MpiError
from repro.mpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    CommBase,
    CommStats,
    RecvTimeout,
    default_recv_timeout,
)
from repro.util.workerpool import WorkerPool, alloc_block, attach_block, defuse, live_blocks

__all__ = [
    "ProcComm",
    "MpiPool",
    "run_world_procs",
    "get_mpi_pool",
    "shutdown_mpi_pools",
    "live_mpi_blocks",
    "LANE_CAP_ENV",
]

#: env override for the per-(src,dst) lane capacity in bytes
LANE_CAP_ENV = "REPRO_MPI_LANE_CAP"
_DEFAULT_LANE_CAP = 1 << 20

_FRAME = struct.Struct("<qq")  # (tag, payload_length) framing header

_SPIN = 0.0002  # lane-wait granularity (seconds)
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


def lane_capacity() -> int:
    """Lane bytes: ``REPRO_MPI_LANE_CAP`` (at least 64) or 1 MiB."""
    env = os.environ.get(LANE_CAP_ENV)
    if env:
        try:
            return max(64, int(env))
        except ValueError:
            raise MpiError(f"{LANE_CAP_ENV}={env!r} is not an integer") from None
    return _DEFAULT_LANE_CAP


class _WorldAborted(MpiError):
    """Raised inside a rank when the world's abort word flips."""


class ProcComm(CommBase):
    """One process-rank's communicator over the shared lanes."""

    def __init__(
        self,
        rank: int,
        size: int,
        ctrl: np.ndarray,
        lane_hdr: np.ndarray,
        lane_buf: np.ndarray,
        recv_timeout: float,
        window_prefix: str = "",
    ):
        self.rank = rank
        self.size = size
        self._coll_seq = 0
        self._ctrl = ctrl
        self._hdr = lane_hdr  # (size*size, 2) int64: [write_count, read_count]
        self._buf = lane_buf  # (size*size, cap) uint8 payload rings
        self._cap = lane_buf.shape[1]
        self._recv_timeout = recv_timeout
        self._window_prefix = window_prefix
        self._window_seq = 0
        self._windows: list[shared_memory.SharedMemory] = []
        self._stats = CommStats()
        #: frames drained but not yet matched: (source, tag, payload)
        self._pending: list[tuple[int, int, bytes]] = []
        #: partially-drained frame bytes, per source rank
        self._partial = [bytearray() for _ in range(size)]

    # -- registry ------------------------------------------------------------
    def _reg(self, rank: int) -> int:
        return _CTRL_HEAD + rank * _REG_WORDS

    def _set_state(self, state: int, source: int = 0, tag: int = 0) -> None:
        base = self._reg(self.rank)
        self._ctrl[base + _REG_SOURCE] = source
        self._ctrl[base + _REG_TAG] = tag
        self._ctrl[base + _REG_STATE] = state

    def _finish(self) -> None:
        self._set_state(_FINISHED)

    def _abort_world(self) -> None:
        self._ctrl[_ABORT_RANK] = self.rank
        self._ctrl[_ABORT] = 1

    def _check_abort(self) -> None:
        if self._ctrl[_ABORT]:
            raise _WorldAborted(
                f"MPI world aborted (by rank {int(self._ctrl[_ABORT_RANK])})"
            )

    @property
    def stats(self) -> CommStats:
        return self._stats

    # -- lane transport ------------------------------------------------------
    def _lane(self, src: int, dst: int) -> int:
        return src * self.size + dst

    def _put(self, dest: int, tag: int, payload: Any) -> None:
        """Chunked lossless write into the (rank -> dest) lane.

        When the lane is full the sender spins briefly, draining its own
        inbound lanes meanwhile — a full lane therefore cannot deadlock
        two ranks sending to each other, preserving the buffered-send
        semantics the shared collectives assume.
        """
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            # the window fast path hands arrays around by reference in
            # the inproc world; across processes everything is bytes
            payload = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _FRAME.pack(tag, len(payload)) + bytes(payload)
        lane = self._lane(self.rank, dest)
        hdr = self._hdr[lane]
        buf = self._buf[lane]
        cap = self._cap
        view = np.frombuffer(frame, dtype=np.uint8)
        off = 0
        deadline = time.monotonic() + self._recv_timeout
        while off < len(view):
            write, read = int(hdr[0]), int(hdr[1])
            space = cap - (write - read)
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
            pos = write % cap
            first = min(n, cap - pos)
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
        base = self._reg(self.rank)
        delivered = False
        for src in range(self.size):
            if src == self.rank:
                continue
            lane = self._lane(src, self.rank)
            hdr = self._hdr[lane]
            write, read = int(hdr[0]), int(hdr[1])
            avail = write - read
            if avail <= 0:
                continue
            self._ctrl[base + _REG_PROGRESS] += 1  # odd: drain in flight
            buf = self._buf[lane]
            cap = self._cap
            pos = read % cap
            first = min(avail, cap - pos)
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
        self._drain()
        return self._match_pop(source, tag)

    def _get(self, source: int, tag: int) -> tuple[int, int, bytes]:
        self._drain()
        got = self._match_pop(source, tag)
        if got is not None:
            return got
        deadline = time.monotonic() + self._recv_timeout
        # stagger diagnosis polls by rank, like the threaded world
        next_diag = time.monotonic() + _DIAG_INTERVAL * (1.0 + 0.13 * self.rank)
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
                        raise DeadlockError(report)
                    next_diag = now + _DIAG_INTERVAL
                time.sleep(_SPIN)
        finally:
            base = self._reg(self.rank)
            if self._ctrl[base + _REG_STATE] == _BLOCKED:
                self._ctrl[base + _REG_STATE] = _ACTIVE

    # -- cross-process wait-for-graph analysis -------------------------------
    def _peer_stuck(self, peer: int, source: int, tag: int) -> bool:
        """Is ``peer`` provably blocked with nothing left to scan?

        True only when the peer is flagged blocked, every lane into it
        is fully drained, and its progress seqlock is even and unchanged
        around those reads — i.e. its last full scan saw everything ever
        sent to it and matched nothing.  Any concurrent movement makes
        this undecidable (False): the caller just retries, exactly like
        the threaded world's try-lock probe.
        """
        base = self._reg(peer)
        p1 = int(self._ctrl[base + _REG_PROGRESS])
        if p1 % 2 or self._ctrl[base + _REG_STATE] != _BLOCKED:
            return False
        for src in range(self.size):
            if src == peer:
                continue
            hdr = self._hdr[self._lane(src, peer)]
            if int(hdr[0]) != int(hdr[1]):
                return False  # undrained traffic: the peer has work to do
        if int(self._ctrl[base + _REG_PROGRESS]) != p1:
            return False
        return self._ctrl[base + _REG_STATE] == _BLOCKED

    def _diagnose(self, source: int, tag: int):
        from repro.analyze.deadlock import PendingMsg, RankWait, diagnose

        waits = {self.rank: RankWait(self.rank, source, tag)}
        finished = set()
        for r in range(self.size):
            if r == self.rank:
                continue
            base = self._reg(r)
            state = int(self._ctrl[base + _REG_STATE])
            if state == _FINISHED:
                finished.add(r)
            elif state == _BLOCKED:
                s = int(self._ctrl[base + _REG_SOURCE])
                t = int(self._ctrl[base + _REG_TAG])
                if self._peer_stuck(r, s, t):
                    waits[r] = RankWait(r, s, t)
        # Soundness: the snapshot above is only trustworthy if *we* have
        # nothing left to scan.  A frame that landed in one of our lanes
        # after the last drain (say, from a peer that then finished, or
        # the send half of a peer now blocked in its recv half) refutes
        # any verdict — bail out and let the caller drain it first.
        # Checked *after* the state reads: a peer's payload bytes are
        # written before its registry flips, so "state seen, lane still
        # empty" proves nothing was in flight.
        for src in range(self.size):
            if src == self.rank:
                continue
            hdr = self._hdr[self._lane(src, self.rank)]
            if int(hdr[0]) != int(hdr[1]):
                return None
        unmatched = tuple(PendingMsg(s, t) for s, t, _ in self._pending)
        return diagnose(self.rank, waits, finished, self.size, unmatched)

    # -- shared windows ------------------------------------------------------
    def shared_window(self, arr, root: int = 0):
        """pyuvsim-style ``shared_mem_bcast``: root-only allocation.

        The root copies ``arr`` into a fresh shared block and broadcasts
        only its (name, shape, dtype); peers attach read-only views.
        After every peer has acknowledged its attach the root unlinks
        the name immediately — mappings keep the memory alive for every
        live view, and a rank dying later cannot leak the segment.

        Stats cost on both substrates: exactly one collective, zero
        message bytes — sharing memory instead of copying it is the
        whole point, and the counters say so.
        """
        self._check_peer(root, "root")
        tag = self._coll_tag(7)  # window metadata
        ack = tag + 1  # attach acknowledgements (coll_id slot 8)
        if self.rank == root:
            if arr is None:
                raise MpiError("shared_window root must contribute an array")
            arr = np.ascontiguousarray(arr)
            self._window_seq += 1
            shm = shared_memory.SharedMemory(
                name=f"{self._window_prefix}win{self._window_seq}_{self.rank}",
                create=True, size=max(arr.nbytes, 1),
            )
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            meta = pickle.dumps((shm.name, arr.shape, arr.dtype.str),
                                protocol=pickle.HIGHEST_PROTOCOL)
            for dst in range(self.size):
                if dst != root:
                    self._put(dst, tag, meta)
            for src in range(self.size):
                if src != root:
                    self._get(src, ack)
            shm.unlink()  # every peer attached: safe to drop the name
            self._windows.append(shm)
            return view
        _, _, meta = self._get(root, tag)
        name, shape, dtype = pickle.loads(meta)
        shm = attach_block(name)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        view.setflags(write=False)
        self._windows.append(shm)
        self._put(root, ack, b"")
        return view

    def _release_windows(self) -> None:
        """Hand window lifetimes to the numpy views (fd-close defuse)."""
        for shm in self._windows:
            defuse(shm)
        self._windows.clear()


# --------------------------------------------------------------------------
# Rank worker process
# --------------------------------------------------------------------------


def _rank_worker(rank: int, bufs: list, size: int, lane_cap: int):
    """The request handler of one rank process: each request is one
    world, ``(fn, recv_timeout, window_prefix)``."""
    ctrl_mem, lane_mem = bufs
    nlanes = size * size
    ctrl = np.ndarray((_CTRL_HEAD + _REG_WORDS * size,), dtype=np.int64,
                      buffer=ctrl_mem)
    lane_hdr = np.ndarray((nlanes, 2), dtype=np.int64, buffer=lane_mem)
    lane_buf = np.ndarray((nlanes, lane_cap), dtype=np.uint8,
                          buffer=lane_mem, offset=nlanes * 16)

    # pyuvsim-style excepthook: anything escaping a thread of this rank
    # (not just the serve loop) must take the whole world down with it
    def _excepthook(exc_type, exc, tb):  # pragma: no cover - last resort
        ctrl[_ABORT_RANK] = rank
        ctrl[_ABORT] = 1
        sys.__excepthook__(exc_type, exc, tb)

    sys.excepthook = _excepthook

    def handle(tag: str, payload: tuple) -> tuple[str, Any]:
        fn, recv_timeout, window_prefix = payload
        comm = ProcComm(
            rank, size, ctrl, lane_hdr, lane_buf, recv_timeout,
            window_prefix=window_prefix,
        )
        try:
            result = fn(comm, rank)
            comm._finish()
            return "result", result
        except _WorldAborted as exc:
            comm._finish()
            return "aborted", str(exc)
        except BaseException as exc:
            comm._abort_world()
            comm._finish()
            detail = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, MpiError):
                detail += "\n" + traceback.format_exc()
            return "error", detail
        finally:
            comm._release_windows()

    return handle


# --------------------------------------------------------------------------
# Master side
# --------------------------------------------------------------------------


class MpiPool(WorkerPool):
    """A persistent world of rank processes for one size."""

    label = "mpi"

    def __init__(self, size: int):
        if size < 1:
            raise MpiError(f"world size must be >= 1, got {size}")
        super().__init__("ezmpi_", size)
        self.size = size
        self.lane_cap = lane_capacity()
        nlanes = size * size
        ctrl_shm = alloc_block(self.prefix + "ctrl_", 0, (_CTRL_HEAD + _REG_WORDS * size) * 8)
        self.ctrl = np.ndarray((_CTRL_HEAD + _REG_WORDS * size,),
                               dtype=np.int64, buffer=ctrl_shm.buf)
        lane_shm = alloc_block(
            self.prefix + "lanes_", 0, nlanes * 16 + nlanes * self.lane_cap
        )
        self.lane_hdr = np.ndarray((nlanes, 2), dtype=np.int64, buffer=lane_shm.buf)
        self._spawn(_rank_worker, [ctrl_shm.name, lane_shm.name], size, self.lane_cap)

    # -- running a world ------------------------------------------------------
    def run(
        self,
        fn: Callable[[ProcComm, int], Any],
        *,
        recv_timeout: float | None = None,
    ) -> list[Any]:
        """Dispatch ``fn(comm, rank)`` to every rank; collect in order.

        Liveness is supervised: a rank that dies flips the abort word so
        its peers unwind promptly, then the pool is torn down and a
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
                "world", (fn, timeout, f"{self.prefix}e{self.epoch + 1}_")
            )
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise self._fail(f"MPI rank pool died at dispatch: {exc}") from None
        pending = set(range(self.size))
        results: list[Any] = [None] * self.size
        errors: list[tuple[int, str]] = []
        aborted: list[int] = []
        grace_deadline: float | None = None
        dead_ranks: list[int] = []
        while pending:
            for rank in sorted(pending):
                conn = self.conns[rank]
                try:
                    if not conn.poll(0.005):
                        continue
                    msg = conn.recv()
                except (EOFError, OSError):
                    continue  # liveness check below handles the dead pipe
                kind, r, ep = msg[0], msg[1], msg[2]
                if ep != epoch:
                    continue
                pending.discard(r)
                if kind == "result":
                    results[r] = msg[3]
                elif kind == "aborted":
                    aborted.append(r)
                else:  # "error"
                    errors.append((r, msg[3]))
            if not pending:
                break
            for rank in list(pending):
                if not self.procs[rank].is_alive():
                    if rank not in dead_ranks:
                        dead_ranks.append(rank)
                        self.ctrl[_ABORT_RANK] = rank
                        self.ctrl[_ABORT] = 1
                    pending.discard(rank)
            if dead_ranks and grace_deadline is None:
                grace_deadline = time.monotonic() + 10.0
            if grace_deadline is not None and time.monotonic() > grace_deadline:
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
            errors.sort()
            details = "; ".join(f"rank {r}: {msg.splitlines()[0]}" for r, msg in errors)
            for r in sorted(aborted):
                details += f"; rank {r}: aborted by peer"
            raise MpiError(f"{len(errors)} rank(s) failed: {details}")
        if aborted:  # pragma: no cover - abort without an error reply
            raise MpiError(f"MPI world aborted (ranks {sorted(aborted)})")
        return results


#: the persistent rank pool for a world size (respawned if broken)
get_mpi_pool = MpiPool.get

#: stop every rank pool and unlink their shared blocks
shutdown_mpi_pools = MpiPool.shutdown_all


def live_mpi_blocks() -> list[str]:
    """Names of MPI-owned shared blocks still registered (leak tests)."""
    return [n for n in live_blocks() if n.startswith("ezmpi_")]


def run_world_procs(
    size: int,
    fn: Callable[[ProcComm, int], Any],
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
