"""One persistent worker-process pool for the real-parallel backends.

The ``procs`` tile pool (:mod:`repro.omp.procs`) and the MPI rank pool
(:mod:`repro.mpi.substrate`) dispatch different work, but their
processes live and die the same way, so that lifecycle lives here once:

* **Shared-memory blocks.**  Every master-side block is named,
  registered in one table and unlinked explicitly — by its owner, by
  pool shutdown, or by the single ``multiprocessing.util.Finalize``
  exit hook, which (unlike ``atexit``) also fires inside sweep worker
  processes, so an interrupted run never leaks ``/dev/shm`` segments.
* **Spawning.**  Daemon workers over pipes, forked straight from the
  master while it runs a single thread (no fresh interpreter, no
  re-import); with any other thread alive, fork is unsafe, so they
  come from a forkserver that preloads the framework once (spawn is
  the last resort), without re-importing the caller's ``__main__``.
  A forked child forgets the master's pools and blocks and closes its
  copies of the master's pipe ends, so a master killed outright still
  reaches every worker as EOF.
* **The worker loop.**  A worker answers ``(tag, epoch, payload)``
  requests with ``(kind, rank, epoch, value)`` replies until it is told
  to shut down.  The payload is unpickled inside the error handler: a
  request the worker cannot decode (say, a function whose module only
  the master has) becomes an ``"error"`` reply, never a dead worker.
* **Teardown and the registry.**  ``shutdown`` is a bounded
  join → terminate → kill that also unlinks the pool's blocks; one
  registry keyed by ``(pool class, size)`` hands out live pools and
  respawns broken ones.

Subclasses keep only what differs: their shared blocks, the worker
handler, and the master's collect loop.
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
    WorkerPool.shutdown_all()
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


def _worker_main(rank: int, conn, block_names: list[str], make_handler, args) -> None:
    """Pool worker: map the pool's blocks, then serve until shutdown.

    ``make_handler(rank, bufs, *args)`` builds the pool-specific
    ``handle(tag, payload) -> (kind, value)``.  An exception raised while
    unpickling a payload or handling it is sent back as an ``"error"``
    reply, and the worker keeps serving.
    """
    # a forked worker starts with a copy of the master's heap, none of it
    # garbage here: the collector skips it, so it neither walks those
    # objects nor copies their pages
    gc.freeze()
    shms = [attach_block(name) for name in block_names]
    try:
        handle = make_handler(rank, [shm.buf for shm in shms], *args)
        while True:
            try:
                msg = conn.recv()
            except (EOFError, KeyboardInterrupt):  # pragma: no cover
                return
            if msg[0] == "shutdown":
                return
            tag, epoch, blob = msg
            try:
                kind, value = handle(tag, pickle.loads(blob))
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

#: the live pools: (pool class, size) -> pool
_POOLS: dict[tuple[type, int], "WorkerPool"] = {}

#: the master-side pipe end of every worker, whichever pool owns it
_MASTER_CONNS: "weakref.WeakSet" = weakref.WeakSet()


def _forget_master_state() -> None:
    """Run in every forked child: drop the copies of the master's pools,
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
    _POOLS.clear()
    for shm in _LIVE_BLOCKS.values():
        defuse(shm)
    _LIVE_BLOCKS.clear()
    _EXIT_FINALIZER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_master_state)


class WorkerPool:
    """A persistent team of worker processes and the blocks they map.

    A subclass ``__init__`` calls ``super().__init__``, allocates its
    blocks under ``self.prefix`` and ends with :meth:`_spawn`.
    """

    #: process names are ``easypap-{label}-{rank}``
    label = "worker"

    def __init__(self, stem: str, nworkers: int):
        self.nworkers = nworkers
        #: every block of this pool is named ``{prefix}...``
        self.prefix = f"{stem}{os.getpid()}_{os.urandom(3).hex()}_"
        self._mp = _mp_context()
        self.epoch = 0
        self.broken = False
        self.conns: list = []
        self.procs: list = []

    def _spawn(self, make_handler: Callable, block_names: list[str], *args) -> None:
        """Start one daemon worker per rank, each serving
        ``make_handler(rank, bufs, *args)`` over its own pipe."""
        with _no_main_reimport():
            for rank in range(self.nworkers):
                parent, child = self._mp.Pipe()
                _MASTER_CONNS.add(parent)  # a forked worker closes its copy
                p = self._mp.Process(
                    target=_worker_main,
                    args=(rank, child, block_names, make_handler, args),
                    daemon=True,
                    name=f"easypap-{self.label}-{rank}",
                )
                p.start()
                child.close()
                self.conns.append(parent)
                self.procs.append(p)

    # -- registry -------------------------------------------------------------
    @classmethod
    def get(cls, nworkers: int) -> "WorkerPool":
        """The persistent pool of this class and size (respawned if broken)."""
        _ensure_exit_finalizer()
        pool = _POOLS.get((cls, nworkers))
        if pool is not None and not pool.healthy():
            pool.shutdown()
            pool = None
        if pool is None:
            pool = cls(nworkers)
            _POOLS[(cls, nworkers)] = pool
        return pool

    @classmethod
    def shutdown_all(cls) -> None:
        """Stop every pool of this class (all of them, on ``WorkerPool``)."""
        for key in [k for k in _POOLS if issubclass(k[0], cls)]:
            _POOLS.pop(key).shutdown()

    # -- liveness / lifecycle -------------------------------------------------
    def healthy(self) -> bool:
        return not self.broken and all(p.is_alive() for p in self.procs)

    def worker_pids(self) -> list[int]:
        return [p.pid for p in self.procs]

    def shutdown(self) -> None:
        """Stop workers (bounded join, then terminate/kill) and unlink
        every pool-scoped shared block."""
        self.broken = True
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
        for name in [n for n in _LIVE_BLOCKS if n.startswith(self.prefix)]:
            unlink_block(name)

    def _fail(self, why: str) -> ExecutionError:
        """Tear the pool down (the next ``get`` respawns it) and return
        the error to raise."""
        self.shutdown()
        key = (type(self), self.nworkers)
        if _POOLS.get(key) is self:
            del _POOLS[key]
        return ExecutionError(why)

    # -- message plumbing -----------------------------------------------------
    def _drain_stale(self) -> None:
        """Drop replies from abandoned epochs (an interrupted request) so
        the next dispatch starts from a clean stream."""
        for conn in self.conns:
            try:
                while conn.poll(0):
                    conn.recv()
            except (EOFError, OSError):
                pass

    def _dispatch(self, tag: str, payload) -> int:
        """Send one request to every worker under a fresh epoch (the
        payload is pickled once) and return that epoch."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.epoch += 1
        self._drain_stale()
        for conn in self.conns:
            conn.send((tag, self.epoch, blob))
        return self.epoch
