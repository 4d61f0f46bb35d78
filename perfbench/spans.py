"""Per-layer spans, recorded from outside the program.

The traced run wraps the public functions of each layer with a timer
and restores the originals afterwards; nothing under ``src/`` changes.
Modules import functions by name (``repro.omp.parallel`` holds its own
``simulate``, ``repro.expt.executors.serial`` its own ``run_point``), so
a function is patched in its defining module *and* in every loaded
``repro`` module whose namespace holds the same object: the name is
replaced where it is looked up.

Spans live in memory (name, start, end, parent, extras).  A span's self
time is its duration minus the durations of its direct children; a
layer's total counts only the spans with no ancestor of the same layer,
so re-entrant calls (a subclass ``init`` calling ``super().init``) are
not counted twice.

Procs pool workers and MPI ranks are separate processes.  Their insides
are seen only through the parent-side calls (``ProcPool.run_region``,
``mpi_run``) and the counters the parent receives in ``RunResult``.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable

__all__ = ["SpanRecorder", "Patcher", "layer_targets", "layer_metrics", "PER_LAYER"]

#: every per-layer metric the traced run reports, with its unit
PER_LAYER: dict[str, str] = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.repro_s": "s",
    "core.run.calls": "count",
    "core.run.s": "s",
    "core.kernel_init.s": "s",
    "core.context.s": "s",
    "core.fastpath.ratio": "ratio",
    "omp.regions": "count",
    "omp.items": "count",
    "omp.frame_s": "s",
    "omp.tiles_s": "s",
    "sched.event_loop.calls": "count",
    "sched.event_loop.s": "s",
    "sched.closed_form.calls": "count",
    "sched.closed_form.s": "s",
    "sched.dag.s": "s",
    "telemetry.publish.calls": "count",
    "telemetry.publish.s": "s",
    "telemetry.events": "count",
    "telemetry.dropped.ratio": "ratio",
    "trace.save.s": "s",
    "trace.bytes": "bytes",
    "procs.spawn_s": "s",
    "procs.session.s": "s",
    "procs.region.calls": "count",
    "procs.region.s": "s",
    "procs.drain.s": "s",
    "procs.manifest.s": "s",
    "procs.wait.s": "s",
    "procs.speedup_vs_seq": "x",
    "mpi.spawn_s": "s",
    "mpi.run.s": "s",
    "mpi.rank_wall.s": "s",
    "mpi.overhead.s": "s",
    "mpi.msgs": "count",
    "mpi.bytes": "bytes",
    "expt.execute.s": "s",
    "expt.point.calls": "count",
    "expt.point.s": "s",
    "expt.capture.s": "s",
    "expt.replay.s": "s",
    "expt.memo.hit_ratio": "ratio",
    "expt.resume.s": "s",
    "csvdb.append.calls": "count",
    "csvdb.append.s": "s",
    "csvdb.rows": "count",
    "csvdb.read.s": "s",
    "bench.unattributed.ratio": "ratio",
    "bench.tracing_overhead.ratio": "ratio",
    "host.effective_parallelism": "x",
    "host.nproc": "count",
    "fail_ratio": "ratio",
}


class SpanRecorder:
    """In-memory span store with a parent stack (main thread only:
    worker threads of the ``threads`` backend run tile bodies, which are
    not wrapped)."""

    def __init__(self) -> None:
        #: [name, start, end, parent_index, op_index, extras]
        self.spans: list[list] = []
        self.op_index = -1
        self._stack: list[int] = []
        self._main = threading.main_thread()

    def wrap(self, name: str, fn: Callable, after=None, before=None) -> Callable:
        """A timing wrapper around ``fn``.  ``after(args, kwargs, result,
        pre)`` may attach counts to the span, where ``pre`` is what
        ``before(args, kwargs)`` returned when the call started."""
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.current_thread() is not recorder._main:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            parent = recorder._stack[-1] if recorder._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, recorder.op_index, None]
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                recorder._stack.pop()
            if after:
                rec[5] = after(args, kwargs, result, pre)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class Patcher:
    """A plan of wrappers: ``install`` swaps them in, ``remove`` puts the
    originals back.  The plan is built once, so toggling is a few
    attribute stores and can bracket every traced op."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.plan: list[tuple[Any, str, Any, Any]] = []

    def function(self, module: str, attr: str, name: str, after=None, before=None) -> None:
        """Wrap ``module.attr`` everywhere a loaded module binds it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.recorder.wrap(name, original, after, before)
        for m in list(sys.modules.values()):
            modname = getattr(m, "__name__", "") or ""
            if not (modname.startswith("repro") or modname.startswith("easypap_ext_")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self.plan.append((m, key, original, wrapper))

    def method(self, cls: type, attr: str, name: str, after=None, before=None) -> None:
        """Wrap ``cls.attr`` where the class itself defines it."""
        if attr in cls.__dict__:
            original = cls.__dict__[attr]
            wrapper = self.recorder.wrap(name, original, after, before)
            self.plan.append((cls, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self.plan:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _wrapper in self.plan:
            setattr(owner, attr, original)


# -- counts attached to spans at the layer boundary --------------------------

def _omp_before(args, kwargs):
    ctx = args[0]
    items = args[2] if len(args) > 2 else kwargs.get("items")
    if items is None:
        n = len(ctx.domain)
    else:
        n = len(items) if hasattr(items, "__len__") else 0
    return ctx.fastpath_regions, n


def _omp_after(args, kwargs, result, pre):
    fast0, n = pre
    return {"fast": args[0].fastpath_regions > fast0, "items": n}


def _publish_after(args, kwargs, result, pre):
    timeline = args[1] if len(args) > 1 else kwargs.get("timeline")
    return {"events": len(timeline) if hasattr(timeline, "__len__") else 0}


def _run_after(args, kwargs, result, pre):
    return {
        "fast": result.fastpath_regions,
        # MPI results carry a rank-context snapshot without region ids
        "regions": getattr(result.context, "region_seq", 0),
        "dropped": result.dropped_events,
    }


def _mpi_after(args, kwargs, result, pre):
    walls = [r.wall_time for r in result.rank_results] or [result.wall_time]
    ctr = result.counters
    return {
        "rank_wall": max(walls),
        "msgs": ctr.get("mpi_msgs_sent_world", 0),
        "bytes": ctr.get("mpi_bytes_sent_world", 0),
    }


def _save_after(args, kwargs, result, pre):
    return {"bytes": result.stat().st_size}


def _append_after(args, kwargs, result, pre):
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    return {"rows": len(rows) if hasattr(rows, "__len__") else 0}


def _execute_after(args, kwargs, result, pre):
    memo = [row.get("memo", "") for row in result]
    return {"hits": memo.count("hit"), "misses": memo.count("miss")}


def layer_targets(patcher: Patcher) -> None:
    """Wrap the public function of every layer the benchmark names."""
    from repro.core.context import ExecutionContext
    from repro.core.kernel import _KERNELS, Kernel, _ensure_builtin_kernels
    from repro.expt.replay import WorkProfileCache
    from repro.mpi.substrate import MpiPool
    from repro.omp.procs import ProcPool, SharedData
    from repro.telemetry.bus import TelemetryBus

    _ensure_builtin_kernels()
    patcher.function("repro.core.engine", "run", "core.run", _run_after)
    seen = set()
    for cls in list(_KERNELS.values()):
        for klass in cls.__mro__:
            if not issubclass(klass, Kernel) or klass in seen:
                continue
            seen.add(klass)
            patcher.method(klass, "init", "core.kernel_init")
            patcher.method(klass, "draw", "core.kernel_init")
    patcher.method(ExecutionContext, "__init__", "core.context")
    patcher.method(ExecutionContext, "close", "core.context")
    for attr in ("parallel_for", "parallel_reduce"):
        patcher.function("repro.omp.parallel", attr, "omp.region", _omp_after, _omp_before)
    patcher.method(ExecutionContext, "sequential_for", "omp.region", _omp_after, _omp_before)
    patcher.function("repro.sched.simulator", "simulate", "sched.event_loop")
    patcher.function("repro.sched.simulator", "simulate_makespan", "sched.closed_form")
    patcher.function("repro.sched.dag_sim", "simulate_dag_policy", "sched.dag")
    patcher.function("repro.sched.dag_sim", "dag_policy_makespan", "sched.dag")
    patcher.function("repro.sched.dag_sim", "simulate_dag", "sched.dag")
    patcher.method(TelemetryBus, "publish_region", "telemetry.publish", _publish_after)
    patcher.function("repro.trace.format", "save_trace", "trace.save", _save_after)
    patcher.method(ProcPool, "__init__", "procs.spawn")
    patcher.method(ProcPool, "ensure_session", "procs.session")
    patcher.method(ProcPool, "run_region", "procs.region")
    patcher.method(SharedData, "manifest", "procs.manifest")
    patcher.function("repro.telemetry.ring", "drain_lane", "ring.drain")
    patcher.method(MpiPool, "__init__", "mpi.spawn")
    patcher.function("repro.mpi.launcher", "mpi_run", "mpi.run", _mpi_after)
    patcher.function("repro.expt.exptools", "execute", "expt.execute", _execute_after)
    patcher.function("repro.expt.executors.base", "run_point", "expt.point")
    patcher.method(WorkProfileCache, "profile", "expt.capture")
    patcher.method(WorkProfileCache, "simulate", "expt.replay")
    patcher.function("repro.expt.exptools", "completed_points", "expt.resume")
    patcher.function("repro.expt.csvdb", "append_rows", "csvdb.append", _append_after)
    patcher.function("repro.expt.csvdb", "read_rows", "csvdb.read")
    patcher.function("repro.expt.csvdb", "read_header", "csvdb.read")


# -- aggregation ----------------------------------------------------------------

def _analyse(spans: list[list]) -> tuple[list[float], list[float], list[set]]:
    """Durations, self times and the set of ancestor names of each span."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    ancestors: list[set] = []
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
            ancestors.append(ancestors[p] | {spans[p][0]})
        else:
            ancestors.append(set())
    selfs = [d - c for d, c in zip(dur, child)]
    return dur, selfs, ancestors


def layer_metrics(recorder: SpanRecorder, nops: int) -> dict[str, float]:
    """Per-layer totals of the traced ops: counts and seconds per op
    (spans recorded outside ops, such as pool spawn, are run totals)."""
    spans = recorder.spans
    dur, selfs, anc = _analyse(spans)
    per = 1.0 / max(nops, 1)
    top: dict[str, float] = {}
    calls: dict[str, int] = {}
    setup: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        if name in anc[i]:
            continue
        if s[4] < 0:
            setup[name] = setup.get(name, 0.0) + dur[i]
            continue
        top[name] = top.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1

    def in_ops(i: int) -> bool:
        return spans[i][4] >= 0

    def tally(pred) -> float:
        return sum(dur[i] for i, s in enumerate(spans) if in_ops(i) and pred(i, s))

    def self_sum(pred) -> float:
        return sum(selfs[i] for i, s in enumerate(spans) if in_ops(i) and pred(i, s))

    def extra_sum(name: str, key: str) -> float:
        return float(sum(
            (s[5] or {}).get(key, 0) for i, s in enumerate(spans)
            if s[0] == name and in_ops(i) and name not in anc[i]
        ))

    m: dict[str, float] = {}
    m["core.run.calls"] = calls.get("core.run", 0) * per
    m["core.run.s"] = top.get("core.run", 0.0) * per
    m["core.kernel_init.s"] = top.get("core.kernel_init", 0.0) * per
    m["core.context.s"] = top.get("core.context", 0.0) * per
    regions = extra_sum("core.run", "regions")
    m["core.fastpath.ratio"] = extra_sum("core.run", "fast") / regions if regions else 0.0

    def omp(i, s, fast):
        return s[0] == "omp.region" and "omp.region" not in anc[i] and (
            bool((s[5] or {}).get("fast")) == fast
        )

    m["omp.regions"] = calls.get("omp.region", 0) * per
    m["omp.items"] = extra_sum("omp.region", "items") * per
    m["omp.frame_s"] = self_sum(lambda i, s: omp(i, s, True)) * per
    m["omp.tiles_s"] = self_sum(lambda i, s: omp(i, s, False)) * per

    m["sched.event_loop.calls"] = calls.get("sched.event_loop", 0) * per
    m["sched.event_loop.s"] = top.get("sched.event_loop", 0.0) * per
    m["sched.closed_form.calls"] = calls.get("sched.closed_form", 0) * per
    m["sched.closed_form.s"] = top.get("sched.closed_form", 0.0) * per
    m["sched.dag.s"] = top.get("sched.dag", 0.0) * per

    events = extra_sum("telemetry.publish", "events")
    dropped = extra_sum("core.run", "dropped")
    m["telemetry.publish.calls"] = calls.get("telemetry.publish", 0) * per
    m["telemetry.publish.s"] = top.get("telemetry.publish", 0.0) * per
    m["telemetry.events"] = events * per
    m["telemetry.dropped.ratio"] = dropped / (events + dropped) if events + dropped else 0.0
    m["trace.save.s"] = top.get("trace.save", 0.0) * per
    m["trace.bytes"] = extra_sum("trace.save", "bytes") * per

    def under_region(i, s, name):
        return s[0] == name and "procs.region" in anc[i]

    region_s = top.get("procs.region", 0.0)
    session_s = tally(lambda i, s: under_region(i, s, "procs.session"))
    drain_s = tally(lambda i, s: under_region(i, s, "ring.drain"))
    manifest_s = tally(lambda i, s: under_region(i, s, "procs.manifest"))
    m["procs.spawn_s"] = setup.get("procs.spawn", 0.0) + top.get("procs.spawn", 0.0)
    m["procs.session.s"] = session_s * per
    m["procs.region.calls"] = calls.get("procs.region", 0) * per
    m["procs.region.s"] = region_s * per
    m["procs.drain.s"] = drain_s * per
    m["procs.manifest.s"] = manifest_s * per
    m["procs.wait.s"] = (region_s - session_s - drain_s - manifest_s) * per

    mpi_s = top.get("mpi.run", 0.0)
    rank_wall = extra_sum("mpi.run", "rank_wall")
    m["mpi.spawn_s"] = setup.get("mpi.spawn", 0.0) + top.get("mpi.spawn", 0.0)
    m["mpi.run.s"] = mpi_s * per
    m["mpi.rank_wall.s"] = rank_wall * per
    m["mpi.overhead.s"] = (mpi_s - rank_wall) * per
    m["mpi.msgs"] = extra_sum("mpi.run", "msgs") * per
    m["mpi.bytes"] = extra_sum("mpi.run", "bytes") * per

    hits = extra_sum("expt.execute", "hits")
    misses = extra_sum("expt.execute", "misses")
    m["expt.execute.s"] = top.get("expt.execute", 0.0) * per
    m["expt.point.calls"] = calls.get("expt.point", 0) * per
    m["expt.point.s"] = top.get("expt.point", 0.0) * per
    m["expt.capture.s"] = top.get("expt.capture", 0.0) * per
    # replay = the memo lookup plus the schedule simulation it runs,
    # without the capture a cold cache triggers underneath
    captured = tally(lambda i, s: s[0] == "expt.capture" and "expt.replay" in anc[i])
    m["expt.replay.s"] = (top.get("expt.replay", 0.0) - captured) * per
    m["expt.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["expt.resume.s"] = top.get("expt.resume", 0.0) * per
    m["csvdb.append.calls"] = calls.get("csvdb.append", 0) * per
    m["csvdb.append.s"] = top.get("csvdb.append", 0.0) * per
    m["csvdb.rows"] = extra_sum("csvdb.append", "rows") * per
    m["csvdb.read.s"] = top.get("csvdb.read", 0.0) * per

    roots = [
        i for i, s in enumerate(spans)
        if in_ops(i) and s[0] in ("core.run", "expt.execute")
        and not anc[i] & {"core.run", "expt.execute"}
    ]
    covered = sum(dur[i] for i in roots)
    m["bench.unattributed.ratio"] = (
        sum(selfs[i] for i in roots) / covered if covered else 0.0
    )
    return m
