"""``backend="procs"``: a true-parallel persistent process pool.

The ``threads`` backend only achieves wall-clock parallelism for tile
bodies that release the GIL (NumPy inner loops); a pure-Python tile
body — the first thing a student writes — serializes.  This module
runs the same worksharing loops on a **persistent worker-process
pool** (forked from a single-threaded master, else from a forkserver)
with all mutable kernel state in POSIX shared memory, so every
tile body runs in genuine parallel and ``--trace`` records real
wall-clock Gantt charts.

Architecture
------------
``SharedArena``
    The named shared-memory blocks of one run, unlinked by an explicit
    ``release()`` or, for an interrupted run, by the exit hook of
    :mod:`repro.util.workerpool` that every pool block shares.

``SharedData``
    A ``dict`` for ``ctx.data`` that transparently mirrors every NumPy
    array into the arena: assignment of a new array allocates a block
    and copies once; re-assignment of an equal-shape array copies in
    place; re-assignment of an array *already in the arena* (the
    ``cells, next = next, cells`` double-buffer swap) only remaps the
    key — zero-copy.  Non-array values stay plain and are shipped to
    workers per region (they are small: flags, viewport floats).

``TileBody`` (:mod:`repro.core.kernel`)
    The picklable tile-body contract.  Closures cannot cross a process
    boundary, so kernels wrap their bound tile methods with
    ``ctx.body(self.do_tile)``; workers re-resolve ``(kernel_name,
    method_name)`` against their own kernel registry and context.

``ProcPool``
    The procs service on :mod:`repro.util.workerpool`'s team of its
    size (MPI ranks of that size run on the same workers), spawned
    once and reused across runs and sweep points.  Per region the
    master writes the item indices into a shared block and sends one
    small dispatch message per worker — frames are **never** pickled.  The master
    copies the claim state of :func:`repro.sched.claim.plan` into a
    shared int64 ``ctrl`` array and sends the plan's few ints in the
    message; each worker claims its chunks with
    :func:`repro.sched.claim.claim` — the rule the simulator runs,
    computing every chunk's bounds from those ints — under the pool
    lock, so contention is per *chunk*, not per tile, and
    ``nonmonotonic:dynamic`` workers steal iterations from the back of
    the most-loaded victim's block.
    Each worker returns its telemetry — wall-clock execution records,
    the ranges it stole and, when ``--check-races`` is on, each task's
    read/write footprints — in the ``done`` reply the master already
    waits for; the master decodes the replies
    (:func:`repro.telemetry.ring.drain_lane`)
    and re-publishes everything on the context's telemetry bus
    (monitoring, ``--trace``, the race analyzer, EASYVIEW).  Nothing is
    dropped: a task that ran is in the region's timeline.

Worker death (e.g. SIGKILL) is detected by liveness polling during
collection and surfaces as a clean :class:`ExecutionError` after a
bounded join; the team is rebuilt on next use.  A worker exception —
including a request the worker cannot unpickle — comes back as an
error reply and leaves the worker serving.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict
from typing import Any, Sequence

import numpy as np

from repro.core import access
from repro.core.kernel import TileBody
from repro.errors import ExecutionError
from repro.sched.claim import claim, plan, state_words
from repro.sched.policies import SchedulePolicy
from repro.sched.simulator import SimResult
from repro.sched.timeline import Timeline
from repro.telemetry.ring import drain_lane
from repro.util.workerpool import (
    WorkerPool,
    alloc_block,
    attach_block,
    defuse,
    live_blocks,
    shutdown_teams,
    unlink_block,
)

__all__ = [
    "SharedArena",
    "SharedData",
    "ProcPool",
    "get_pool",
    "shutdown_pools",
    "procs_parallel_for",
    "new_session_id",
    "live_arena_blocks",
]

#: how long ``ensure_session`` waits for workers to come up / resync
SETUP_TIMEOUT = 120.0

_SESSION_IDS = itertools.count(1)


def new_session_id() -> int:
    """A fresh id tying one ExecutionContext to pool setup state."""
    return next(_SESSION_IDS)


# --------------------------------------------------------------------------
# Shared-memory blocks
# --------------------------------------------------------------------------


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
        shm = alloc_block(self.prefix, self._seq, nbytes)
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
            unlink_block(name)


def live_arena_blocks() -> list[str]:
    """Names of not-yet-released arena blocks (leak tests)."""
    return [n for n in live_blocks() if "_arena_" in n]


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
        shm = state["shms"][name] = attach_block(name)
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
        defuse(shm)
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


def _worker_region(state: dict, lock, ctrl, rank: int, r: dict) -> dict:
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

    rule = r["rule"]
    reduce_values = [] if r["reduce"] else None
    # telemetry travels back in the reply: (pos, start, end) per task,
    # (lo, hi) per stolen chunk and, when collected, (pos, Footprint)
    # per task
    execs: list[tuple[int, float, float]] = []
    stolen: list[tuple[int, int]] = []
    footprints: list | None = [] if r["footprints"] else None
    perf = time.perf_counter
    while True:
        with lock:
            got = claim(rule, ctrl, rank)
        if got is None:
            break
        lo, hi, was_stolen = got
        if was_stolen:
            stolen.append((int(lo), int(hi)))
        for pos in range(lo, hi):
            item = items[pos]
            if footprints is not None:
                with access.collect() as col:
                    s = perf()
                    ret = method(ctx, item)
                    e = perf()
                footprints.append((pos, col.freeze()))
            else:
                s = perf()
                ret = method(ctx, item)
                e = perf()
            execs.append((pos, s, e))
            if reduce_values is not None:
                reduce_values.append((pos, ret[1]))
    return {
        "values": reduce_values, "sets": data.sets,
        "execs": execs, "stolen": stolen, "footprints": footprints,
    }


def _procs_worker(rank: int, nworkers: int, lock, bufs: list):
    """The request handler of one pool worker: ``setup`` (re)builds the
    shadow context, ``region`` runs this worker's share of a loop."""
    state: dict[str, Any] = {"shms": {}}
    ctrl = np.ndarray((state_words(nworkers),), dtype=np.int64, buffer=bufs[0])

    def handle(tag: str, payload: dict) -> tuple[str, Any]:
        if tag == "setup":
            _worker_setup(state, payload)
            return "ready", None
        return "done", _worker_region(state, lock, ctrl, rank, payload)

    return handle


# --------------------------------------------------------------------------
# Master side
# --------------------------------------------------------------------------


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
                unlink_block(self.name)
            cap = max(needed, 1024)
            shm = alloc_block(f"{self.prefix}{self.tag}g{self._gen}_", 0, cap)
            self._gen += 1
            self.name = shm.name
            self.arr = np.ndarray((cap // self.dtype.itemsize,), dtype=self.dtype,
                                  buffer=shm.buf)
        flat = int(np.prod(shape, dtype=np.int64))
        return self.arr[:flat].reshape(shape)


class ProcPool(WorkerPool):
    """The procs service on the worker team (one worker per virtual CPU)."""

    def __init__(self, nworkers: int):
        super().__init__("ezpap_pool_", nworkers)
        # the shared claim state: queue cursor, steal count, [head, tail)s
        words = state_words(nworkers)
        ctrl_shm = alloc_block(self.prefix + "ctrl_", 0, words * 8)
        self.ctrl = np.ndarray((words,), dtype=np.int64, buffer=ctrl_shm.buf)
        self._items = _GrowBlock(self.prefix, "items_", np.int64)
        self.session: int | None = None
        self._serve(_procs_worker, [ctrl_shm.name])

    def _collect(self, epoch: int, timeout: float | None) -> list:
        """One reply to ``epoch`` per worker; raises ExecutionError on dead
        workers, worker exceptions or an expired ``timeout``."""
        replies: list = [None] * self.nworkers
        errors: list[str] = []
        deadline = time.monotonic() + timeout if timeout else None
        for rank, kind, value in self._replies(epoch, 0.02):
            if kind == "dead":
                raise self._fail(
                    f"procs worker {rank} died mid-region (killed?); "
                    "the worker team will be respawned on next use"
                )
            if kind == "error":
                errors.append(f"worker {rank}: {value}")
            elif kind != "tick":
                replies[rank] = value
            elif deadline is not None and time.monotonic() > deadline:
                raise self._fail(f"procs workers did not answer within {timeout:.0f}s")
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
        self._collect(self._dispatch("setup", setup), SETUP_TIMEOUT)
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
        scalar writebacks, the steal count and per-task footprints (when
        the run collects them).  The timeline and footprints are decoded
        from the workers' ``done`` replies, so they cover every task.
        """
        self.ensure_session(ctx)
        n = len(items)
        timeline = Timeline(items, [], [], [], [], ncpus=self.nworkers, meta=meta,
                            stolen=set())
        if n == 0:
            return timeline, 0.0, {
                "values": [], "sets": {}, "steals": 0, "footprints": None,
            }

        rule, state = plan(policy, n, self.nworkers)
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

        self.ctrl[:] = state

        arrays, scalars = ctx.data.manifest()
        msg = {
            "body": spec,
            "iteration": ctx.iteration,
            "img_parity": ctx.img.swaps % 2,
            "arrays": arrays,
            "scalars": scalars,
            "n": n,
            "items_block": items_block,
            "items_pickled": items_pickled,
            "footprints": want_fp,
            "rule": rule,
            "reduce": reduce,
        }
        t0 = time.perf_counter()
        replies = self._collect(self._dispatch("region", msg), None)
        elapsed = time.perf_counter() - t0

        total = sum(len(r["execs"]) for r in replies)
        if total != n:
            raise self._fail(
                f"procs region executed {total} of {n} items — a worker "
                "lost its claimed chunk (crash mid-chunk?)"
            )
        values: list = [None] * n if reduce else []
        merged_sets: dict = {}
        footprints: list | None = [None] * n if want_fp else None
        for rank, r in enumerate(replies):
            drain_lane(r, rank, ctx.vclock, t0, timeline, footprints)
            if reduce:
                for pos, value in r["values"]:
                    values[pos] = value
            merged_sets.update(r["sets"])
        return timeline, elapsed, {
            "values": values,
            "sets": merged_sets,
            "steals": int(self.ctrl[1]),
            "footprints": footprints,
        }


#: the procs service on the team of a size (respawned if broken)
get_pool = ProcPool.get

#: stop every worker team (MPI ranks run there too) and unlink its blocks
shutdown_pools = shutdown_teams


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
    publish_region(ctx, timeline, extra["steals"], extra["footprints"])
    return SimResult(timeline, steals=extra["steals"])
