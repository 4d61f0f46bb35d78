"""Work-profile capture & replay: fast parameter sweeps.

A kernel's per-tile *work* is deterministic and independent of thread
count and schedule (iteration-independence is precisely what a
worksharing loop requires).  So a sweep over (threads x schedule) only
needs the kernel to run **once** per workload: the captured sequence of
parallel regions (with their work vectors and task graphs) is then
re-simulated under each configuration.

Replayed points are identical to full runs — the simulator sees the
same costs either way, so the clock, the ``steals`` count and the
completed iterations all match — which makes paper-Fig. 6-sized sweeps
(dozens of configurations x 10 repetitions) run in seconds.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import RunConfig
from repro.core.context import ExecutionContext
from repro.core.kernel import get_kernel
from repro.errors import ConfigError
from repro.sched.costmodel import CostModel
from repro.sched.dag_sim import dag_policy_makespan
from repro.sched.policies import DynamicSchedule
from repro.sched.simulator import simulate

__all__ = ["RegionLog", "WorkProfileCache", "replay_log"]


#: log entry kinds (first tuple element); "dag" is a FIFO task region
#: (``task_region``), "dagp" a policy-scheduled dependency-carrying
#: worksharing region (wavefront domains)
PAR, SEQ, MASTER, DAG, DAGP = "par", "seq", "master", "dag", "dagp"

RegionLog = list  # list of ("par", works) / ("seq", works) / ("master", w)
#                   / ("dag", works, preds) / ("dagp", works, preds)


def capture_log(config: RunConfig) -> tuple[RegionLog, CostModel, int]:
    """Run ``config`` once, recording every region's work profile.

    Returns the region log, the cost model and the number of iterations
    the run completed (fewer than asked when the kernel stabilized).

    The log is replayed once at ``config`` itself before it is returned:
    a variant that moves the clock (or steals) outside the region log
    (GPU launches, the wall-clock time of real backends) cannot be
    replayed, and raises :class:`ConfigError` instead of yielding a
    wrong row.
    """
    from repro.util.rng import make_jitter_rng

    if config.mpi_np:
        raise ConfigError("work-profile replay does not support MPI runs")
    log: RegionLog = []
    kernel = get_kernel(config.kernel)
    compute = kernel.compute_fn(config.variant)
    capture_cfg = kernel.run_config(config.with_(monitoring=False, trace=False))
    ctx = ExecutionContext(capture_cfg)
    ctx.region_log = log
    kernel.init(ctx)
    kernel.draw(ctx)
    compute(ctx, capture_cfg.iterations)
    kernel.finalize(ctx)
    replayed, steals = replay_log(
        log,
        nthreads=capture_cfg.nthreads,
        policy=capture_cfg.policy(),
        model=ctx.model,
        jitter=capture_cfg.jitter,
        jitter_rng=make_jitter_rng(capture_cfg.seed, capture_cfg.run_index),
    )
    live_steals = ctx.bus.counters.get("steals", 0)
    if (replayed, steals) != (ctx.vclock, live_steals):
        raise ConfigError(
            f"work-profile replay cannot reproduce {capture_cfg.kernel} "
            f"{capture_cfg.variant} on backend {capture_cfg.backend}: the region "
            f"log replays to {replayed!r} s and {steals} steals but the run "
            f"took {ctx.vclock!r} s and {live_steals} steals"
        )
    return log, ctx.model, ctx.completed_iterations


def replay_log(
    log: RegionLog,
    *,
    nthreads: int,
    policy,
    model: CostModel,
    jitter: float = 0.0,
    jitter_rng=None,
) -> tuple[float, int]:
    """Virtual elapsed time and ``steals`` count of the captured run
    under a new configuration.

    Each worksharing region is scheduled by the same :func:`simulate`
    grabs a live run sums into its ``steals`` counter; sequential and
    task regions steal nothing, live or replayed.

    When ``jitter > 0``, ``jitter_rng`` must be the stream a full run
    would use (:func:`repro.util.rng.make_jitter_rng`); noise is drawn
    region by region in the same order, so replayed times equal full-run
    times exactly, noise included.
    """
    from repro.sched.costmodel import perturb

    def noisy(costs: list[float]) -> list[float]:
        if jitter <= 0.0:
            return costs
        return perturb(costs, jitter_rng, jitter)

    vclock = 0.0
    steals = 0
    for entry in log:
        kind = entry[0]
        if kind == PAR:
            costs = noisy(model.times_of(entry[1]))
            result = simulate(costs, policy, nthreads, model=model, start_time=vclock)
            steals += result.steals
            vclock = max(result.makespan, vclock) + model.fork_join_overhead
        elif kind == SEQ:
            # the same left fold from the clock as the live loop
            for cost in noisy(model.times_of(entry[1])):
                vclock += cost
        elif kind == MASTER:
            vclock += model.time_of(entry[1])
        elif kind in (DAG, DAGP):
            # task regions are FIFO list scheduling: the dynamic branch
            # of the policy-aware DAG scheduler
            works, preds = entry[1], entry[2]
            costs = noisy(model.times_of(works))
            end = dag_policy_makespan(
                costs, preds, DynamicSchedule(1) if kind == DAG else policy, nthreads,
                model=model, start_time=vclock,
            )
            vclock = max(end, vclock) + model.fork_join_overhead
        else:  # pragma: no cover - defensive
            raise ConfigError(f"unknown region log entry {kind!r}")
    return vclock, steals


#: bump when the persisted profile layout changes; older files are
#: silently ignored (and re-captured), never misread.
#: 2: the execution tier joined the workload key and schedule-result
#: memo files appeared alongside the profiles
#: 3: work domains — the workload key grew (domain, dim_y, dim_z) and
#: region logs may carry "dagp" entries
#: 4: ``config.fastpath`` replaced the resolved execution tier in the
#: workload key
#: 5: profile and memo files share one payload layout (``value``)
#: 6: profiles carry the completed iteration count, memo entries are
#: ``(elapsed, steals, completed)`` instead of a bare elapsed time
CACHE_FORMAT = 6


@dataclass
class WorkProfileCache:
    """Memoizes work profiles by workload key; replays per configuration.

    With ``cache_dir`` set, profiles are also persisted to disk,
    content-addressed by the workload key — concurrent sweep workers
    and *later invocations* share captures instead of redoing them.
    Files are written atomically (tmp + ``os.replace``) and verified
    against their key on load, so a corrupt or stale cache entry can
    only ever cause a re-capture, never a wrong result.

    On top of the profiles sits the **schedule-result memo**: the
    replayed ``(elapsed, steals, completed)`` of each fully-specified
    point — workload key plus ``(threads, schedule, jitter,
    run_index)`` — is remembered (and disk-persisted next to the
    profiles as ``memo-*.pkl``), so repeated sweep points, resumed
    sweeps and identical requests skip even the replay simulation.  A
    memo hit returns exactly what a fresh replay would produce — the
    replay is deterministic, that is the whole premise of this module —
    and the hit/miss tally is exposed in :attr:`counters` (surfaced as
    sweep telemetry).  The last point's outcome is kept in
    :attr:`last_memo` (the ``memo`` CSV column), :attr:`last_steals`
    and :attr:`last_completed`.  A fresh instance's first call for a
    point is a miss, i.e. a fresh replay.
    """

    cache_dir: str | os.PathLike | None = None
    _cache: dict[tuple, tuple[RegionLog, CostModel, int]] = field(default_factory=dict)
    #: workload key -> {(threads, schedule, jitter, run_index):
    #: (elapsed, steals, completed)}
    _memo: dict[tuple, dict[tuple, tuple[float, int, int]]] = field(default_factory=dict)
    counters: dict[str, int] = field(
        default_factory=lambda: {"memo_hits": 0, "memo_misses": 0}
    )
    #: the most recent :meth:`simulate` call: "hit" or "miss", and the
    #: point's ``steals`` count and completed iterations
    last_memo: str = ""
    last_steals: int = 0
    last_completed: int = 0

    @staticmethod
    def workload_key(config: RunConfig) -> tuple:
        """Everything the work profile depends on (NOT threads/schedule).

        Includes ``backend`` and ``fastpath``, which together decide
        whether a capture runs the whole-frame fast path or the
        interpreted tile bodies.  The two are bit-identical by
        construction, but the cache must not *assume* its own
        correctness proof: a profile captured on one path never serves
        a point requested on the other.
        """
        return (
            config.kernel,
            config.variant,
            config.dim,
            config.tile_w,
            config.tile_h,
            config.iterations,
            config.arg,
            config.seed,
            config.time_scale,
            config.backend,
            config.fastpath,
            config.domain,
            config.dim_y,
            config.dim_z,
        )

    # -- disk persistence ----------------------------------------------------
    def _path(self, kind: str, key: tuple) -> Path:
        digest = hashlib.sha256(repr((CACHE_FORMAT, key)).encode()).hexdigest()
        return Path(self.cache_dir) / f"{kind}-{digest[:40]}.pkl"

    def _read(self, kind: str, key: tuple):
        """The ``kind`` value stored for ``key``; None when the file is
        missing, corrupt, of another format or for another key."""
        try:
            with self._path(kind, key).open("rb") as fh:
                payload = pickle.load(fh)
            if payload.get("format") == CACHE_FORMAT and payload.get("key") == key:
                return payload["value"]
        except Exception:
            pass
        return None

    def _write(self, kind: str, key: tuple, value) -> None:
        """Atomically replace the ``kind`` file of ``key`` (tmp +
        ``os.replace``); the cache is an optimization, never fatal."""
        path = self._path(kind, key)
        payload = {"format": CACHE_FORMAT, "key": key, "value": value}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    def profile(self, config: RunConfig) -> tuple[RegionLog, CostModel, int]:
        key = self.workload_key(config)
        if key in self._cache:
            return self._cache[key]
        profile = self._read("profile", key) if self.cache_dir is not None else None
        if profile is None:
            profile = capture_log(config)
            if self.cache_dir is not None:
                self._write("profile", key, profile)
        self._cache[key] = profile
        return profile

    def _replay(self, config: RunConfig) -> tuple[float, int, int]:
        from repro.util.rng import make_jitter_rng

        log, model, completed = self.profile(config)
        elapsed, steals = replay_log(
            log,
            nthreads=config.nthreads,
            policy=config.policy(),
            model=model,
            jitter=config.jitter,
            jitter_rng=make_jitter_rng(config.seed, config.run_index),
        )
        return elapsed, steals, completed

    def simulate(self, config: RunConfig) -> float:
        """Elapsed virtual seconds of ``config`` (captures on first use);
        the point's ``steals`` count and completed iterations are left
        in :attr:`last_steals` and :attr:`last_completed`.

        Served from the schedule-result memo when the identical point
        was replayed before — by this instance, another worker sharing
        ``cache_dir``, or an earlier invocation.
        """
        key = self.workload_key(config)
        subkey = (config.nthreads, config.schedule, config.jitter, config.run_index)
        memo = self._memo.get(key)
        if memo is None:
            disk = self._read("memo", key) if self.cache_dir is not None else None
            memo = self._memo[key] = dict(disk or {})
        if subkey in memo:
            self.counters["memo_hits"] += 1
            self.last_memo = "hit"
        else:
            memo[subkey] = self._replay(config)
            self.counters["memo_misses"] += 1
            self.last_memo = "miss"
            if self.cache_dir is not None:
                # merge with what concurrent writers stored meanwhile; a lost
                # update costs one extra replay later, never a wrong value
                self._write("memo", key, {**(self._read("memo", key) or {}), **memo})
        elapsed, self.last_steals, self.last_completed = memo[subkey]
        return elapsed
