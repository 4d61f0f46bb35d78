"""``backend="procs"``: a true-parallel persistent process pool.

The ``threads`` backend only achieves wall-clock parallelism for tile
bodies that release the GIL (NumPy inner loops); a pure-Python tile
body — the first thing a student writes — serializes.  This module
runs the same worksharing loops on a **persistent forkserver worker
pool** with all mutable kernel state in POSIX shared memory, so every
tile body runs in genuine parallel and ``--trace`` records real
wall-clock Gantt charts.

Architecture
------------
``SharedArena``
    Allocates named ``multiprocessing.shared_memory`` blocks and tracks
    them for deterministic cleanup (explicit ``release()``, plus a
    process-exit finalizer so interrupted runs never leak ``/dev/shm``
    segments — ``multiprocessing.util.Finalize`` also fires inside
    sweep worker processes, where ``atexit`` does not run).

``SharedData``
    A ``dict`` for ``ctx.data`` that transparently mirrors every NumPy
    array into the arena: assignment of a new array allocates a block
    and copies once; re-assignment of an equal-shape array copies in
    place; re-assignment of an array *already in the arena* (the
    ``cells, next = next, cells`` double-buffer swap) only remaps the
    key — zero-copy.  Non-array values stay plain and are shipped to
    workers per region (they are small: flags, viewport floats).

``TileBody``
    The picklable tile-body contract.  Closures cannot cross a process
    boundary, so kernels wrap their bound tile methods with
    ``ctx.body(self.do_tile)``; workers re-resolve ``(kernel_name,
    method_name)`` against their own kernel registry and context.

``ProcPool``
    One pool per team size, spawned once and reused across iterations,
    runs and expTools sweep points.  Per region the master writes the
    chunk table and item indices into shared blocks and sends one small
    dispatch message per worker — frames are **never** pickled.  Chunks
    are claimed through a shared int64 index array (one lock, one
    counter — contention is per *chunk*, not per tile); the
    ``nonmonotonic:dynamic`` family uses per-worker chunk deques in the
    same array, stolen from the tail of the most-loaded victim.
    Workers stream telemetry — wall-clock execution records and, when
    ``--check-races`` is on, read/write footprints — into per-worker
    shared-memory ring lanes (:mod:`repro.telemetry.ring`); the master
    drains the lanes between regions and re-publishes everything on the
    context's telemetry bus (monitoring, ``--trace``, the race
    analyzer, EASYVIEW).  A full lane drops its oldest records instead
    of ever blocking a worker; drops surface as the run's
    ``dropped_events`` counter.

Worker death (e.g. SIGKILL) is detected by liveness polling during
collection and surfaces as a clean :class:`ExecutionError` after a
bounded join; the pool is rebuilt on next use.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict
from multiprocessing import shared_memory, util
from typing import Any, Sequence

import numpy as np

from repro.core import access
from repro.errors import ExecutionError, ScheduleError
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    SchedulePolicy,
    StaticSchedule,
)
from repro.sched.simulator import SimResult
from repro.sched.timeline import TaskExec, Timeline
from repro.telemetry.ring import (
    KIND_EXEC,
    KIND_FP_READ,
    KIND_FP_WRITE,
    RECORD_WIDTH,
    RingWriter,
    drain_lane,
    ring_capacity,
)

__all__ = [
    "SharedArena",
    "SharedData",
    "TileBody",
    "ProcPool",
    "get_pool",
    "shutdown_pools",
    "procs_parallel_for",
    "new_session_id",
    "live_arena_blocks",
    "register_cleanup",
]

#: start method for pool workers; forkserver gives clean children that
#: preload the framework once (cheap respawn), spawn is the fallback.
START_METHODS = ("forkserver", "spawn")

#: how long ``ensure_session`` waits for workers to come up / resync
SETUP_TIMEOUT = float(os.environ.get("REPRO_PROCS_SETUP_TIMEOUT", "120"))

#: optional wall-clock bound per region (0 = unbounded, liveness only)
REGION_TIMEOUT = float(os.environ.get("REPRO_PROCS_TIMEOUT", "0"))

_SESSION_IDS = itertools.count(1)


def new_session_id() -> int:
    """A fresh id tying one ExecutionContext to pool setup state."""
    return next(_SESSION_IDS)


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
    shutdown_pools()
    for fn in list(_EXTRA_CLEANUPS):
        try:
            fn()
        except Exception:
            pass
    for name in list(_LIVE_BLOCKS):
        _unlink_block(name)


#: exit hooks of sibling subsystems sharing the finalizer (the MPI rank
#: pool registers its shutdown here, so one Finalize covers everything)
_EXTRA_CLEANUPS: list = []


def register_cleanup(fn) -> None:
    """Run ``fn`` at interpreter exit, after the procs pools stop but
    before the live shared-memory blocks are swept."""
    _ensure_exit_finalizer()
    if fn not in _EXTRA_CLEANUPS:
        _EXTRA_CLEANUPS.append(fn)


def _alloc_block(prefix: str, seq: int, nbytes: int) -> shared_memory.SharedMemory:
    _ensure_exit_finalizer()
    shm = shared_memory.SharedMemory(
        name=f"{prefix}{seq}", create=True, size=max(int(nbytes), 1)
    )
    _LIVE_BLOCKS[shm.name] = shm
    return shm


def _unlink_block(name: str) -> None:
    shm = _LIVE_BLOCKS.pop(name, None)
    if shm is None:
        return
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    _defuse(shm)


def _defuse(shm: shared_memory.SharedMemory) -> None:
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


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """No-op placeholder for the attach-side resource_tracker dance.

    Python < 3.13 registers *attached* (not just created) blocks with the
    resource tracker.  Pool workers share the master's tracker process
    (the fd is inherited through forkserver/spawn), so the re-register is
    a harmless set-dedup and must NOT be undone: an explicit
    ``unregister`` here would erase the master's own registration and
    break its unlink bookkeeping.  Kept as a hook (and documentation)
    should a future start method give workers a private tracker.
    """


class SharedArena:
    """A set of named shared-memory blocks owned by one run."""

    def __init__(self, tag: str = "arena"):
        self.prefix = f"ezpap_{tag}_{os.getpid()}_{os.urandom(3).hex()}_"
        self._seq = 0
        self._names: list[str] = []
        self.released = False

    def alloc(self, shape: tuple[int, ...], dtype) -> tuple[str, np.ndarray]:
        """Allocate a zero-filled block; returns ``(name, ndarray view)``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        shm = _alloc_block(self.prefix, self._seq, nbytes)
        self._seq += 1
        self._names.append(shm.name)
        return shm.name, np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    def release(self) -> None:
        """Unlink every block (idempotent).  Existing NumPy views stay
        readable until they are garbage collected; the ``/dev/shm``
        entries disappear immediately."""
        if self.released:
            return
        self.released = True
        for name in self._names:
            _unlink_block(name)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def live_arena_blocks() -> list[str]:
    """Names of not-yet-released arena blocks (leak tests)."""
    return [n for n in _LIVE_BLOCKS if "_arena_" in n]


class SharedData(dict):
    """``ctx.data`` with every NumPy array mirrored into shared memory.

    The stored values *are* the shared views, so master-side kernel code
    (lazy-evaluation bookkeeping, ``refresh_img``...) reads and writes
    the same bytes the workers do.  ``manifest()`` describes the array
    mapping plus the plain (picklable) values for one region dispatch.
    """

    def __init__(self, arena: SharedArena):
        super().__init__()
        self._arena = arena
        self._block_of_key: dict[str, str] = {}
        self._block_of_view: dict[int, str] = {}

    def __setitem__(self, key, value) -> None:
        if isinstance(value, np.ndarray) and value.dtype != object:
            block = self._block_of_view.get(id(value))
            if block is not None:
                # an arena view handed out earlier (buffer swap): remap
                self._block_of_key[key] = block
                dict.__setitem__(self, key, value)
                return
            current = self.get(key)
            if (
                isinstance(current, np.ndarray)
                and key in self._block_of_key
                and current.shape == value.shape
                and current.dtype == value.dtype
            ):
                current[...] = value  # same geometry: reuse the block
                return
            name, view = self._arena.alloc(value.shape, value.dtype)
            view[...] = value
            self._block_of_key[key] = name
            self._block_of_view[id(view)] = name
            dict.__setitem__(self, key, view)
            return
        self._forget(key)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        self._forget(key)
        dict.__delitem__(self, key)

    def _forget(self, key) -> None:
        self._block_of_key.pop(key, None)

    def update(self, *args, **kwargs) -> None:  # route through __setitem__
        for k, v in dict(*args, **kwargs).items():
            self[k] = v

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]

    def manifest(self) -> tuple[dict, dict]:
        """``(arrays, scalars)`` for one region message: array keys map
        to ``(block, shape, dtype)``, everything else is sent by value."""
        arrays = {}
        scalars = {}
        for k, v in self.items():
            block = self._block_of_key.get(k)
            if block is not None:
                arrays[k] = (block, tuple(v.shape), v.dtype.str)
            else:
                scalars[k] = v
        return arrays, scalars


# --------------------------------------------------------------------------
# The picklable tile-body contract
# --------------------------------------------------------------------------


class TileBody:
    """A tile body that can cross a process boundary.

    Wraps a *bound kernel method* with signature ``method(ctx, item)``;
    locally it behaves like the closure it replaces, and its ``spec``
    (kernel name, method name) lets pool workers re-resolve the same
    method against their own kernel instance and shadow context.
    """

    __slots__ = ("ctx", "method", "spec")

    def __init__(self, ctx, method):
        kernel = getattr(method, "__self__", None)
        name = getattr(kernel, "name", None)
        if not name or name == "?":
            raise ExecutionError(
                "ctx.body() needs a bound method of a registered kernel "
                f"(got {method!r})"
            )
        self.ctx = ctx
        self.method = method
        self.spec = (name, method.__func__.__name__)

    def __call__(self, item):
        return self.method(self.ctx, item)


def _require_tile_body(body, ctx) -> tuple[str, str]:
    if not isinstance(body, TileBody):
        raise ExecutionError(
            "backend='procs' runs tile bodies in worker processes, which "
            "cannot receive closures: pass ctx.body(self.do_tile) (a bound "
            "method of a registered kernel) instead of a lambda"
        )
    if body.ctx is not ctx:
        raise ExecutionError("ctx.body() was built for a different context")
    return body.spec


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


class _TrackingDict(dict):
    """Worker-side ``ctx.data``: records plain-value assignments made by
    tile bodies so the master can merge them after the region (the
    idempotent ``changed = True`` convergence flags)."""

    def __init__(self):
        super().__init__()
        self.sets: dict[str, Any] = {}

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        if not isinstance(value, np.ndarray):
            self.sets[key] = value


def _worker_view(state: dict, name: str, shape, dtype) -> np.ndarray:
    shm = state["shms"].get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        _untrack(shm)
        state["shms"][name] = shm
    return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf)


def _worker_setup(state: dict, setup: dict) -> None:
    from repro.core.config import RunConfig
    from repro.core.context import ExecutionContext
    from repro.core.kernel import get_kernel, load_kernel_module

    # detach blocks of the previous session: defuse, so views the old
    # shadow context still holds cannot turn into dangling pointers —
    # the mappings are reclaimed when those views are garbage collected
    state["shms"], old = {}, state.get("shms", {})
    for shm in old.values():
        _defuse(shm)
    for path in setup["kernel_files"]:
        load_kernel_module(path)
    kwargs = dict(setup["config"])
    # the worker context is inert: no pool of its own, no sinks
    kwargs.update(
        backend="sim", monitoring=False, trace=False,
        footprints=False, display=False, mpi_np=0,
    )
    cfg = RunConfig(**kwargs)
    ctx = ExecutionContext(cfg)
    state.update(
        ctx=ctx,
        kernel=get_kernel(cfg.kernel),
        img_names=tuple(setup["img_names"]),
        dim=setup["dim"],
        dim_y=setup.get("dim_y") or setup["dim"],
    )


def _worker_claim_queue(ctrl, lock, nchunks: int) -> int:
    with lock:
        cid = int(ctrl[0])
        if cid >= nchunks:
            return -1
        ctrl[0] = cid + 1
        return cid


def _worker_claim_steal(ctrl, lock, rank: int, nworkers: int, steal_half: bool) -> int:
    """Pop the front of our deque, or steal from the tail of the victim
    with the most remaining chunks.  Returns a chunk id or -1."""
    with lock:
        h, t = int(ctrl[2 + 2 * rank]), int(ctrl[3 + 2 * rank])
        if h < t:
            ctrl[2 + 2 * rank] = h + 1
            return h
        best, remaining = -1, 0
        for v in range(nworkers):
            if v == rank:
                continue
            r = int(ctrl[3 + 2 * v]) - int(ctrl[2 + 2 * v])
            if r > remaining:
                best, remaining = v, r
        if best < 0:
            return -1
        vt = int(ctrl[3 + 2 * best])
        take = max((remaining + 1) // 2, 1) if steal_half else 1
        ctrl[3 + 2 * best] = vt - take
        # adopt all stolen chunks but the one we run now
        ctrl[2 + 2 * rank] = vt - take + 1
        ctrl[3 + 2 * rank] = vt
        ctrl[1] += 1
        return vt - take


def _worker_region(state: dict, lock, ctrl, rank: int, nworkers: int, r: dict) -> dict:
    from repro.core.kernel import get_kernel

    ctx = state["ctx"]
    ctx.iteration = r["iteration"]
    shape = (state["dim_y"], state["dim"])
    a, b = state["img_names"]
    cur_name, nxt_name = (a, b) if r["img_parity"] == 0 else (b, a)
    ctx.img.cur = _worker_view(state, cur_name, shape, np.uint32)
    ctx.img.nxt = _worker_view(state, nxt_name, shape, np.uint32)

    data = _TrackingDict()
    for k, (name, shape, dt) in r["arrays"].items():
        dict.__setitem__(data, k, _worker_view(state, name, shape, dt))
    for k, v in r["scalars"].items():
        dict.__setitem__(data, k, v)
    ctx.data = data

    kname, mname = r["body"]
    kernel = state["kernel"] if state["kernel"].name == kname else get_kernel(kname)
    method = getattr(kernel, mname)

    if r["items_pickled"] is not None:
        items = r["items_pickled"]
    else:
        idx = _worker_view(state, r["items_block"], (r["n"],), np.int64)
        grid = ctx.grid
        items = [grid[int(i)] for i in idx]

    chunks = _worker_view(state, r["chunk_block"], (r["nchunks"], 2), np.int64)
    ring_payload = _worker_view(
        state, r["ring_block"], (nworkers, r["ring_cap"], RECORD_WIDTH), np.float64
    )
    # ring lane write counts live in the tail of the shared ctrl array:
    # attached once at worker startup, monotonic across regions
    ring = RingWriter(ctrl[2 + 2 * nworkers :], ring_payload, rank)

    mode = r["mode"]
    if mode == "static":
        my_chunks = iter(r["static_chunks"][rank])

        def next_chunk() -> int:
            return next(my_chunks, -1)

    elif mode == "queue":

        def next_chunk() -> int:
            return _worker_claim_queue(ctrl, lock, r["nchunks"])

    else:  # steal

        def next_chunk() -> int:
            return _worker_claim_steal(ctrl, lock, rank, nworkers, r["steal_half"])

    reduce_values = [] if r["reduce"] else None
    collect_fp = r["footprints"]
    # footprints carry buffer *names*; a numeric ring cannot ship strings,
    # so each worker interns them and sends the table back with "done"
    buf_ids: dict[str, int] = {}
    bufs: list[str] = []
    nev = 0
    perf = time.perf_counter
    while True:
        cid = next_chunk()
        if cid < 0:
            break
        lo, hi = int(chunks[cid, 0]), int(chunks[cid, 1])
        for pos in range(lo, hi):
            item = items[pos]
            if collect_fp:
                with access.collect() as col:
                    s = perf()
                    ret = method(ctx, item)
                    e = perf()
                fp = col.freeze()
                ring.emit(KIND_EXEC, pos, s, e)
                for kind, regions in (
                    (KIND_FP_READ, fp.reads),
                    (KIND_FP_WRITE, fp.writes),
                ):
                    for reg in regions:
                        buf, x, y, w, h = reg[:5]
                        z, depth = (reg[5], reg[6]) if len(reg) >= 7 else (0, 1)
                        bid = buf_ids.get(buf)
                        if bid is None:
                            bid = buf_ids[buf] = len(bufs)
                            bufs.append(buf)
                        ring.emit(kind, pos, bid, x, y, w, h, z, depth)
            else:
                s = perf()
                ret = method(ctx, item)
                e = perf()
                ring.emit(KIND_EXEC, pos, s, e)
            nev += 1
            if reduce_values is not None:
                reduce_values.append((pos, ret[1]))
    return {"n": nev, "values": reduce_values, "sets": data.sets, "bufs": bufs}


def _worker_main(rank: int, conn, lock, ctrl_name: str, nworkers: int) -> None:
    """Pool worker: serve setup/region messages until shutdown."""
    state: dict[str, Any] = {"shms": {}}
    ctrl_shm = shared_memory.SharedMemory(name=ctrl_name)
    _untrack(ctrl_shm)
    # layout: [queue cursor, steal count, per-worker deques (2 each),
    #          per-worker telemetry-ring write counts (1 each)]
    ctrl = np.ndarray((2 + 3 * nworkers,), dtype=np.int64, buffer=ctrl_shm.buf)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, KeyboardInterrupt):  # pragma: no cover
                return
            tag = msg[0]
            if tag == "shutdown":
                return
            try:
                if tag == "setup":
                    _worker_setup(state, msg[1])
                    conn.send(("ready", rank, msg[2]))
                elif tag == "region":
                    out = _worker_region(state, lock, ctrl, rank, nworkers, msg[1])
                    conn.send(("done", rank, msg[2], out))
                elif tag == "ping":
                    conn.send(("pong", rank, msg[2]))
            except Exception as exc:  # surface, do not die
                detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                try:
                    conn.send(("error", rank, msg[2], detail))
                except Exception:  # pragma: no cover - master went away
                    return
    finally:
        _defuse(ctrl_shm)


# --------------------------------------------------------------------------
# Master side
# --------------------------------------------------------------------------


@contextmanager
def _no_main_reimport():
    """Spawn workers without re-importing the caller's ``__main__``.

    forkserver/spawn children normally re-run the main module (that is
    why multiprocessing demands the ``if __name__ == "__main__"`` guard
    — an unguarded student script would recursively re-execute itself,
    or crash outright when main is ``<stdin>``).  Our workers live
    entirely in this importable module, so the re-import is pure risk
    with no benefit: temporarily hiding ``__main__``'s ``__file__`` and
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


class _GrowBlock:
    """A pool-scoped shared block that grows geometrically; the name
    changes on growth so workers re-attach lazily."""

    def __init__(self, prefix: str, tag: str, dtype):
        self.prefix, self.tag, self.dtype = prefix, tag, np.dtype(dtype)
        self.name: str | None = None
        self.arr: np.ndarray | None = None
        self._gen = 0

    def ensure(self, shape: tuple[int, ...]) -> np.ndarray:
        needed = int(np.prod(shape, dtype=np.int64)) * self.dtype.itemsize
        if self.arr is None or self.arr.nbytes < needed:
            if self.name is not None:
                _unlink_block(self.name)
            cap = max(needed, 1024)
            shm = _alloc_block(f"{self.prefix}{self.tag}g{self._gen}_", 0, cap)
            self._gen += 1
            self.name = shm.name
            self.arr = np.ndarray((cap // self.dtype.itemsize,), dtype=self.dtype,
                                  buffer=shm.buf)
        flat = int(np.prod(shape, dtype=np.int64))
        return self.arr[:flat].reshape(shape)

    def release(self) -> None:
        if self.name is not None:
            _unlink_block(self.name)
            self.name, self.arr = None, None


def _chunk_plan(policy: SchedulePolicy, n: int, nworkers: int) -> dict:
    """Turn a schedule policy into a chunk table + dispatch mode."""
    if isinstance(policy, StaticSchedule):
        table: list[tuple[int, int]] = []
        static_chunks: list[list[int]] = []
        for chunks in policy.assignment(n, nworkers):
            ids = []
            for c in chunks:
                ids.append(len(table))
                table.append((c.lo, c.hi))
            static_chunks.append(ids)
        return {"mode": "static", "table": table, "static_chunks": static_chunks}
    if isinstance(policy, NonMonotonicDynamic):
        k = policy.chunk
        table = []
        deques = []  # per-worker [head, tail) over the chunk table
        for block in policy.initial_blocks(n, nworkers):
            head = len(table)
            for lo in range(block.lo, block.hi, k):
                table.append((lo, min(lo + k, block.hi)))
            deques.append((head, len(table)))
        return {
            "mode": "steal", "table": table, "deques": deques,
            "steal_half": policy.steal_half,
        }
    if isinstance(policy, (DynamicSchedule, GuidedSchedule)):
        table = [(c.lo, c.hi) for c in policy.chunk_queue(n, nworkers)]
        return {"mode": "queue", "table": table}
    raise ScheduleError(f"unsupported policy {policy!r}")  # pragma: no cover


class ProcPool:
    """A persistent team of worker processes (one per virtual CPU)."""

    def __init__(self, nworkers: int):
        self.nworkers = nworkers
        self.prefix = f"ezpap_pool_{os.getpid()}_{os.urandom(3).hex()}_"
        self._mp = _mp_context()
        self.lock = self._mp.Lock()
        ctrl_shm = _alloc_block(self.prefix + "ctrl_", 0, (2 + 3 * nworkers) * 8)
        self._ctrl_name = ctrl_shm.name
        self.ctrl = np.ndarray((2 + 3 * nworkers,), dtype=np.int64, buffer=ctrl_shm.buf)
        self._chunks = _GrowBlock(self.prefix, "chunks_", np.int64)
        self._items = _GrowBlock(self.prefix, "items_", np.int64)
        #: telemetry ring payload (lanes of fixed-width records); the
        #: write counts live in the tail of ``ctrl``, the master-side
        #: read cursors here
        self._ring = _GrowBlock(self.prefix, "ring_", np.float64)
        self._ring_consumed = [0] * nworkers
        self.session: int | None = None
        self.epoch = 0
        self.broken = False
        self.conns = []
        self.procs = []
        with _no_main_reimport():
            for rank in range(nworkers):
                parent, child = self._mp.Pipe()
                p = self._mp.Process(
                    target=_worker_main,
                    args=(rank, child, self.lock, self._ctrl_name, nworkers),
                    daemon=True,
                    name=f"easypap-procs-{rank}",
                )
                p.start()
                child.close()
                self.conns.append(parent)
                self.procs.append(p)

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
        _unlink_block(self._ctrl_name)
        for block in (self._chunks, self._items, self._ring):
            block.release()

    def _fail(self, why: str) -> "ExecutionError":
        self.shutdown()
        _POOLS.pop(self.nworkers, None)
        return ExecutionError(why)

    # -- message plumbing -----------------------------------------------------
    def _drain_stale(self) -> None:
        """Drop replies from abandoned epochs (a timed-out or interrupted
        region) so the next dispatch starts from a clean stream."""
        for conn in self.conns:
            try:
                while conn.poll(0):
                    conn.recv()
            except (EOFError, OSError):
                pass

    def _collect(self, want: str, epoch: int, timeout: float | None) -> list:
        """One reply of kind ``want``/``epoch`` per worker, with liveness
        checks and a bounded wait; raises ExecutionError on dead workers,
        worker exceptions, or timeout."""
        pending = set(range(self.nworkers))
        replies: list = [None] * self.nworkers
        errors: list[str] = []
        deadline = time.monotonic() + timeout if timeout else None
        while pending:
            progressed = False
            for rank in sorted(pending):
                conn = self.conns[rank]
                try:
                    if not conn.poll(0.02):
                        continue
                    msg = conn.recv()
                except (EOFError, OSError):
                    raise self._fail(
                        f"procs worker {rank} died mid-region (connection lost); "
                        "pool will be respawned on next use"
                    ) from None
                progressed = True
                if msg[0] == "error" and msg[2] == epoch:
                    errors.append(f"worker {rank}: {msg[3]}")
                    pending.discard(rank)
                elif msg[0] == want and msg[2] == epoch:
                    replies[rank] = msg[3] if len(msg) > 3 else None
                    pending.discard(rank)
                # anything else: stale reply from an abandoned epoch — drop
            if not progressed:
                for rank in sorted(pending):
                    if not self.procs[rank].is_alive():
                        raise self._fail(
                            f"procs worker {rank} died mid-region (killed?); "
                            "pool will be respawned on next use"
                        )
                if deadline is not None and time.monotonic() > deadline:
                    raise self._fail(
                        f"procs workers did not answer within {timeout:.0f}s"
                    )
        if errors:
            raise ExecutionError(
                "procs region failed in worker(s):\n" + "\n".join(errors)
            )
        return replies

    # -- session + region dispatch -------------------------------------------
    def ensure_session(self, ctx) -> None:
        from repro.core.kernel import loaded_kernel_files

        if self.session == ctx.procs_session:
            return
        setup = {
            "config": asdict(ctx.config),
            "img_names": list(ctx.img_blocks),
            "dim": ctx.dim,
            "dim_y": ctx.dim_y,
            "kernel_files": loaded_kernel_files(),
        }
        self.epoch += 1
        self._drain_stale()
        for conn in self.conns:
            conn.send(("setup", setup, self.epoch))
        self._collect("ready", self.epoch, SETUP_TIMEOUT)
        self.session = ctx.procs_session

    def run_region(
        self,
        ctx,
        spec: tuple[str, str],
        items: Sequence,
        policy: SchedulePolicy,
        meta: dict,
        *,
        reduce: bool = False,
    ) -> tuple[Timeline, float, dict]:
        """Execute one worksharing region on the pool.

        Returns ``(timeline, elapsed_wall_seconds, extras)`` where
        ``extras`` carries reduction values (in item order), merged
        scalar writebacks, the steal count, per-task footprints (when
        the run collects them) and the number of telemetry events the
        ring dropped.
        """
        self.ensure_session(ctx)
        n = len(items)
        timeline = Timeline(ncpus=self.nworkers)
        if n == 0:
            return timeline, 0.0, {
                "values": [], "sets": {}, "steals": 0,
                "footprints": None, "dropped": 0,
            }

        plan = _chunk_plan(policy, n, self.nworkers)
        table = plan["table"]
        chunk_arr = self._chunks.ensure((max(len(table), 1), 2))
        chunk_arr[: len(table)] = table

        items_pickled = None
        items_block = None
        from repro.core.tiling import Tile

        grid = ctx.grid
        if all(
            isinstance(t, Tile) and 0 <= t.index < len(grid) and grid[t.index] == t
            for t in items
        ):
            idx_arr = self._items.ensure((n,))
            idx_arr[:] = [t.index for t in items]
            items_block = self._items.name
        else:
            items_pickled = list(items)

        want_fp = bool(ctx.collect_footprints)
        ring_cap = ring_capacity(n, want_fp)
        ring_arr = self._ring.ensure((self.nworkers, ring_cap, RECORD_WIDTH))

        # region control words: queue cursor, steal count, per-worker deques
        self.ctrl[0] = 0
        self.ctrl[1] = 0
        if plan["mode"] == "steal":
            for rank, (h, t) in enumerate(plan["deques"]):
                self.ctrl[2 + 2 * rank] = h
                self.ctrl[3 + 2 * rank] = t

        arrays, scalars = ctx.data.manifest()
        self.epoch += 1
        msg = {
            "body": spec,
            "iteration": ctx.iteration,
            "img_parity": ctx.img.swaps % 2,
            "arrays": arrays,
            "scalars": scalars,
            "n": n,
            "items_block": items_block,
            "items_pickled": items_pickled,
            "chunk_block": self._chunks.name,
            "nchunks": len(table),
            "ring_block": self._ring.name,
            "ring_cap": ring_cap,
            "footprints": want_fp,
            "mode": plan["mode"],
            "static_chunks": plan.get("static_chunks"),
            "steal_half": plan.get("steal_half", False),
            "reduce": reduce,
        }
        self._drain_stale()
        t0 = time.perf_counter()
        for conn in self.conns:
            conn.send(("region", msg, self.epoch))
        replies = self._collect("done", self.epoch, REGION_TIMEOUT or None)
        elapsed = time.perf_counter() - t0

        total = sum(r["n"] for r in replies)
        if total != n:
            # lost-work detection rides on the pipe replies, never on the
            # (droppable) telemetry ring
            raise self._fail(
                f"procs region executed {total} of {n} items — a worker "
                "lost its claimed chunk (crash mid-chunk?)"
            )
        values: list = [None] * n if reduce else []
        merged_sets: dict = {}
        ring_hdr = self.ctrl[2 + 2 * self.nworkers :]
        dropped = 0
        fp_reads: dict[int, list] = {}
        fp_writes: dict[int, list] = {}
        for rank, r in enumerate(replies):
            records, self._ring_consumed[rank], lost = drain_lane(
                ring_hdr, ring_arr, rank, self._ring_consumed[rank]
            )
            dropped += lost
            bufs = r.get("bufs") or []
            for rec in records:
                kind = int(rec[0])
                pos = int(rec[2])
                if kind == KIND_EXEC:
                    m = dict(meta)
                    m["index"] = pos
                    timeline.append(
                        TaskExec(
                            items[pos], rank,
                            ctx.vclock + (rec[3] - t0), ctx.vclock + (rec[4] - t0), m,
                        )
                    )
                elif kind in (KIND_FP_READ, KIND_FP_WRITE):
                    bid = int(rec[3])
                    region = (
                        bufs[bid] if 0 <= bid < len(bufs) else "?",
                        int(rec[4]), int(rec[5]), int(rec[6]), int(rec[7]),
                    )
                    z, depth = int(rec[8]), int(rec[9])
                    if (z, depth) != (0, 1):
                        region += (z, depth)
                    sink = fp_reads if kind == KIND_FP_READ else fp_writes
                    sink.setdefault(pos, []).append(region)
            if reduce:
                for pos, value in r["values"]:
                    values[pos] = value
            merged_sets.update(r["sets"])
        footprints = None
        if want_fp:
            footprints = [
                access.Footprint(
                    reads=tuple(fp_reads.get(pos, ())),
                    writes=tuple(fp_writes.get(pos, ())),
                )
                for pos in range(n)
            ]
        return timeline, elapsed, {
            "values": values,
            "sets": merged_sets,
            "steals": int(self.ctrl[1]),
            "footprints": footprints,
            "dropped": dropped,
        }


# --------------------------------------------------------------------------
# Pool registry
# --------------------------------------------------------------------------

_POOLS: dict[int, ProcPool] = {}


def get_pool(nworkers: int) -> ProcPool:
    """The persistent pool for a team size (respawned if broken)."""
    _ensure_exit_finalizer()
    pool = _POOLS.get(nworkers)
    if pool is not None and not pool.healthy():
        pool.shutdown()
        pool = None
    if pool is None:
        pool = ProcPool(nworkers)
        _POOLS[nworkers] = pool
    return pool


def shutdown_pools() -> None:
    """Stop every pool and unlink their shared blocks (tests, atexit)."""
    for key in list(_POOLS):
        _POOLS.pop(key).shutdown()


# --------------------------------------------------------------------------
# The backend entry point (called from repro.omp.parallel)
# --------------------------------------------------------------------------


def procs_parallel_for(ctx, body, items, policy, meta, values=None) -> SimResult:
    """One worksharing region on the pool; a reduction's values (in item
    order, from the workers' replies) land in ``values``."""
    from repro.omp.parallel import publish_region

    spec = _require_tile_body(body, ctx)
    pool = get_pool(ctx.nthreads)
    timeline, elapsed, extra = pool.run_region(
        ctx, spec, items, policy, meta, reduce=values is not None
    )
    for k, v in extra["sets"].items():
        ctx.data[k] = v
    if values is not None:
        values[:] = extra["values"]
    ctx.vclock += elapsed
    ctx.bus.record_dropped(extra["dropped"])
    publish_region(ctx, timeline, extra["steals"], extra["footprints"])
    return SimResult(timeline, grabs=[], steals=extra["steals"])
