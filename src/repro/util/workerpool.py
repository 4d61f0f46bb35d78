"""One persistent team of worker processes per size, shared by the
real-parallel backends.

The ``procs`` tile pool (:mod:`repro.omp.procs`) and the MPI rank pool
(:mod:`repro.mpi.substrate`) are two *services* on the same workers, so
a session that runs procs regions and MPI worlds of one size keeps one
team.  A service (a :class:`WorkerPool`) owns its shared blocks, made on
its first ``get``, its worker handler and its master's collect loop.
The team owns the processes, their pipes, the request epoch and the
procs claim lock, made before the fork because workers can only
inherit it.  The rest lives here once:

* **Shared-memory blocks** are named, registered in one table and
  unlinked explicitly — by their owner, by team shutdown, or by the
  one ``multiprocessing.util.Finalize`` exit hook, which (unlike
  ``atexit``) also fires inside sweep worker processes.
* **Spawning.**  Daemon workers over pipes, forked straight from a
  single-threaded master (no re-import), else from a forkserver that
  preloads the framework once (spawn is the last resort), never
  re-importing the caller's ``__main__``.  A forked child forgets the
  master's teams and blocks and closes its copies of the master's pipe
  ends, so a master killed outright still reaches every worker as EOF.
* **The worker loop** answers ``(tag, epoch, payload, service)``
  requests with ``(kind, rank, epoch, value)`` replies.  On a service's
  first request a worker maps the blocks it names and builds its
  handler, so MPI code and blocks load only in a session that uses MPI.
  A payload the worker cannot decode becomes an ``"error"`` reply,
  never a dead worker.
* **Teardown.**  A bounded join → terminate → kill that also unlinks
  every service's blocks.  A dead worker, or a failure in either
  service, tears the whole team down; the next ``get`` of either
  service respawns it.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
import threading
import time
import traceback
import weakref
from contextlib import contextmanager
from multiprocessing import shared_memory, util
from typing import Callable

from repro.errors import ExecutionError

__all__ = [
    "WorkerPool",
    "alloc_block",
    "attach_block",
    "defuse",
    "live_blocks",
    "shutdown_teams",
    "unlink_block",
]

#: start methods for pool workers when the master runs more than one
#: thread (fork is only used from a single-threaded master): forkserver
#: gives clean children that preload the framework once, spawn is the
#: fallback.
START_METHODS = ("forkserver", "spawn")

# --------------------------------------------------------------------------
# Shared-memory bookkeeping
# --------------------------------------------------------------------------

#: every live master-side block, for the exit finalizer: name -> SharedMemory
_LIVE_BLOCKS: dict[str, shared_memory.SharedMemory] = {}

_EXIT_FINALIZER = None


def _ensure_exit_finalizer() -> None:
    # util.Finalize(None, ...) runs at interpreter exit in the main
    # process *and* inside multiprocessing children (sweep workers),
    # where plain atexit handlers never fire.
    global _EXIT_FINALIZER
    if _EXIT_FINALIZER is None:
        _EXIT_FINALIZER = util.Finalize(None, _cleanup_at_exit, exitpriority=20)


def _cleanup_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    shutdown_teams()
    for name in list(_LIVE_BLOCKS):
        unlink_block(name)


def alloc_block(prefix: str, seq: int, nbytes: int) -> shared_memory.SharedMemory:
    """Create the block ``{prefix}{seq}`` and register it for cleanup."""
    _ensure_exit_finalizer()
    shm = shared_memory.SharedMemory(
        name=f"{prefix}{seq}", create=True, size=max(int(nbytes), 1)
    )
    _LIVE_BLOCKS[shm.name] = shm
    return shm


def attach_block(name: str) -> shared_memory.SharedMemory:
    """Map a block another process created."""
    # never unregister from the resource tracker: it is the master's, shared
    return shared_memory.SharedMemory(name=name)


def unlink_block(name: str) -> None:
    """Drop a registered block's name; live views stay readable."""
    shm = _LIVE_BLOCKS.pop(name, None)
    if shm is None:
        return
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    defuse(shm)


def defuse(shm: shared_memory.SharedMemory) -> None:
    """Hand the mapping's lifetime over to the NumPy views.

    ``SharedMemory.close()`` (also called by ``__del__``) unmaps
    immediately: NumPy keeps only an object reference to the mmap
    (``arr.base``), not an active buffer export, so a close under live
    views turns every later access into a segfault.  Instead we close
    the fd and null the object's handles — the mmap object then lives
    exactly as long as the views referencing it, and the OS reclaims
    the memory when the last one is garbage collected.
    """
    fd = getattr(shm, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover
            pass
        shm._fd = -1
    shm._mmap = None
    shm._buf = None


def live_blocks() -> list[str]:
    """Names of every registered, not-yet-unlinked block (leak tests)."""
    return list(_LIVE_BLOCKS)


# --------------------------------------------------------------------------
# Spawning
# --------------------------------------------------------------------------


@contextmanager
def _no_main_reimport():
    """Spawn workers without re-importing the caller's ``__main__``.

    forkserver/spawn children normally re-run the main module (that is
    why multiprocessing demands the ``if __name__ == "__main__"`` guard
    — an unguarded student script would recursively re-execute itself,
    or crash outright when main is ``<stdin>``).  Our workers live
    entirely in importable modules, so the re-import is pure risk with
    no benefit: temporarily hiding ``__main__``'s ``__file__`` and
    ``__spec__`` makes ``spawn.get_preparation_data`` skip it.
    """
    main = sys.modules.get("__main__")
    sentinel = object()
    saved_file = getattr(main, "__file__", sentinel)
    saved_spec = getattr(main, "__spec__", sentinel)
    try:
        if main is not None:
            if saved_file is not sentinel:
                del main.__file__
            main.__spec__ = None
        yield
    finally:
        if main is not None:
            if saved_file is not sentinel:
                main.__file__ = saved_file
            if saved_spec is not sentinel:
                main.__spec__ = saved_spec


def _mp_context():
    import multiprocessing as mp

    available = mp.get_all_start_methods()
    # fork copies every lock as it is: safe only when no other thread
    # can be holding one
    if "fork" in available and threading.active_count() == 1:
        return mp.get_context("fork")
    for method in START_METHODS:
        if method in available:
            ctx = mp.get_context(method)
            if method == "forkserver":
                # preload the framework once in the fork server: workers
                # then fork with repro + numpy already imported
                try:
                    ctx.set_forkserver_preload(["repro.omp.procs"])
                except Exception:  # pragma: no cover
                    pass
            return ctx
    raise ExecutionError(  # pragma: no cover - POSIX always has one
        f"no usable multiprocessing start method among {START_METHODS}"
    )


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _worker_main(rank: int, conn, nworkers: int, lock) -> None:
    """Team worker: serve every service's requests until shutdown.

    A service's ``make_handler(rank, nworkers, lock, bufs)`` builds its
    ``handle(tag, payload) -> (kind, value)`` on the service's first
    request, over the blocks the request names.  An exception raised
    while unpickling a payload or handling it becomes an ``"error"``
    reply, and the worker keeps serving."""
    # a forked worker starts with a copy of the master's heap, none of it
    # garbage here: the collector skips it, so it neither walks those
    # objects nor copies their pages
    gc.freeze()
    handlers: dict[str, Callable] = {}
    shms: list[shared_memory.SharedMemory] = []
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, KeyboardInterrupt):  # pragma: no cover
                return
            if msg[0] == "shutdown":
                return
            tag, epoch, blob, (key, make_handler, block_names) = msg
            try:
                if key not in handlers:
                    mine = [attach_block(name) for name in block_names]
                    shms += mine
                    handlers[key] = make_handler(rank, nworkers, lock, [m.buf for m in mine])
                kind, value = handlers[key](tag, pickle.loads(blob))
            except Exception as exc:  # surface, do not die
                kind = "error"
                value = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            try:
                conn.send((kind, rank, epoch, value))
            except Exception:  # pragma: no cover - master went away
                return
    finally:
        for shm in shms:
            defuse(shm)


# --------------------------------------------------------------------------
# Master side
# --------------------------------------------------------------------------

#: the live teams: size -> team
_TEAMS: dict[int, "_Team"] = {}

#: the master-side pipe end of every worker, whichever team owns it
_MASTER_CONNS: "weakref.WeakSet" = weakref.WeakSet()


def _forget_master_state() -> None:
    """Run in every forked child: drop the copies of the master's teams,
    blocks and exit hook.  Closing the pipe ends lets a dead master's
    workers see EOF; the blocks are defused, never unlinked (they are
    still the master's); a fresh exit hook is registered on first use
    (a multiprocessing child has cleared the copied one)."""
    global _EXIT_FINALIZER
    for conn in list(_MASTER_CONNS):
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
    _MASTER_CONNS.clear()
    _TEAMS.clear()
    for shm in _LIVE_BLOCKS.values():
        defuse(shm)
    _LIVE_BLOCKS.clear()
    _EXIT_FINALIZER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_master_state)


class _Team:
    """The worker processes of one size, their pipes, the request epoch
    and the procs claim lock; every service of that size uses them."""

    def __init__(self, nworkers: int):
        self.nworkers = nworkers
        self._mp = _mp_context()
        self.lock = self._mp.Lock()  # before the fork: workers inherit it
        self.epoch = 0
        self.broken = False
        self.conns: list = []
        self.procs: list = []
        self.services: dict[type, WorkerPool] = {}  # class -> service
        with _no_main_reimport():
            for rank in range(nworkers):
                parent, child = self._mp.Pipe()
                _MASTER_CONNS.add(parent)  # a forked worker closes its copy
                p = self._mp.Process(
                    target=_worker_main,
                    args=(rank, child, nworkers, self.lock),
                    daemon=True,
                    name=f"easypap-worker-{rank}",
                )
                p.start()
                child.close()
                self.conns.append(parent)
                self.procs.append(p)

    def healthy(self) -> bool:
        return not self.broken and all(p.is_alive() for p in self.procs)

    def shutdown(self) -> None:
        """Stop the workers (bounded join, then terminate/kill), unlink
        every service's blocks and leave the registry."""
        self.broken = True
        if _TEAMS.get(self.nworkers) is self:
            del _TEAMS[self.nworkers]
        for conn in self.conns:
            try:
                conn.send(("shutdown",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 2.0
        for p in self.procs:
            p.join(timeout=max(deadline - time.monotonic(), 0.05))
        for p in self.procs:
            if p.is_alive():
                p.terminate()
        for p in self.procs:
            p.join(timeout=1.0)
            if p.is_alive():  # pragma: no cover - terminate() sufficed so far
                p.kill()
                p.join(timeout=1.0)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        prefixes = tuple(s.prefix for s in self.services.values())
        for name in [n for n in _LIVE_BLOCKS if n.startswith(prefixes)]:
            unlink_block(name)


def shutdown_teams() -> None:
    """Stop every team and unlink every service's blocks."""
    for team in list(_TEAMS.values()):
        team.shutdown()


class WorkerPool:
    """A service on the team of its size.  A subclass ``__init__`` calls
    ``super().__init__``, allocates its blocks under ``self.prefix`` and
    ends with :meth:`_serve`, which spawns the team if its size has none.
    """

    def __init__(self, stem: str, nworkers: int):
        self.nworkers = nworkers
        #: every block of this service is named ``{prefix}...``
        self.prefix = f"{stem}{os.getpid()}_{os.urandom(3).hex()}_"

    def _serve(self, make_handler: Callable, block_names: list[str]) -> None:
        """Join the team of this size, spawning it if there is none.  Its
        workers serve this service with ``make_handler(rank, nworkers,
        lock, bufs)`` over these blocks, built on the first request.  The
        blocks come first: the master's resource tracker then runs before
        a fork, and workers that map a block report to it."""
        team = _TEAMS.get(self.nworkers)
        if team is not None and not team.healthy():
            team.shutdown()  # leaves the registry
        self.team = _TEAMS[self.nworkers] = _TEAMS.get(self.nworkers) or _Team(self.nworkers)
        self.team.services[type(self)] = self
        self._service = (self.prefix, make_handler, block_names)

    # -- registry -------------------------------------------------------------
    @classmethod
    def get(cls, nworkers: int) -> "WorkerPool":
        """This service on the team of this size (the team is respawned
        if it broke)."""
        team = _TEAMS.get(nworkers)
        pool = team.services.get(cls) if team is not None else None
        return pool if pool is not None and pool.healthy() else cls(nworkers)

    # -- liveness / lifecycle -------------------------------------------------
    def healthy(self) -> bool:
        return self.team.services.get(type(self)) is self and self.team.healthy()

    def worker_pids(self) -> list[int]:
        return [p.pid for p in self.team.procs]

    def shutdown(self) -> None:
        """Stop the team (every service of its size goes with it)."""
        self.team.shutdown()

    def _fail(self, why: str) -> ExecutionError:
        """Tear the team down (the next ``get`` respawns it); the error to raise."""
        self.team.shutdown()
        return ExecutionError(why)

    # -- message plumbing -----------------------------------------------------
    def _dispatch(self, tag: str, payload) -> int:
        """Send one request to every worker under a fresh team epoch
        (the payload is pickled once) and return that epoch."""
        team = self.team
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        team.epoch += 1
        # drop replies from abandoned epochs (an interrupted request) so
        # this dispatch starts from a clean stream
        for conn in team.conns:
            try:
                while conn.poll(0):
                    conn.recv()
            except (EOFError, OSError):
                pass
        for conn in team.conns:
            conn.send((tag, team.epoch, blob, self._service))
        return team.epoch

    def _replies(self, epoch: int, poll: float):
        """Yield ``(rank, kind, value)`` per worker: its reply to ``epoch``
        or ``"dead"``; ``(None, "tick", None)`` ends each sweep (deadline
        checks).  Replies to other epochs are dropped."""
        pending = set(range(self.nworkers))
        while pending:
            for rank in sorted(pending):
                conn = self.team.conns[rank]
                try:
                    msg = conn.recv() if conn.poll(poll) else None
                except (EOFError, OSError):
                    msg = None  # a dead pipe: the liveness check sees it
                if msg is not None and msg[2] == epoch:
                    pending.discard(rank)
                    yield rank, msg[0], msg[3]
            for rank in sorted(pending):
                if not self.team.procs[rank].is_alive():
                    pending.discard(rank)
                    yield rank, "dead", None
            yield None, "tick", None
