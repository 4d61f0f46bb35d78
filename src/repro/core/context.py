"""The execution context handed to every kernel variant.

A :class:`ExecutionContext` bundles the image, the tile grid, the
parallel runtime (virtual-CPU team + schedule policy + cost model), the
telemetry bus with its consumers (monitor, trace recorder), and the
virtual clock.  Kernels see the EASYPAP surface — ``cur_img``/
``next_img``, ``swap_images``, ``DIM``, ``TILE_W``... — plus the
parallel constructs (``parallel_for``, ``task_region``) documented in
:mod:`repro.omp`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence, TYPE_CHECKING

import numpy as np

from repro.core import access
from repro.core.config import RunConfig
from repro.core.domains import domain_of, make_domain
from repro.core.image import Img2D
from repro.core.kernel import TileBody
from repro.core.tiling import Tile, TileGrid
from repro.sched.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sched.policies import SchedulePolicy
from repro.telemetry.bus import TelemetryBus
from repro.util.rng import make_jitter_rng, make_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.activity import Monitor
    from repro.mpi.proc import MpiProcessContext
    from repro.trace.recorder import TraceRecorder

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Everything a kernel variant needs to run.

    The context owns the *virtual clock*: every parallel region advances
    it by the simulated makespan of that region (plus fork/join
    overhead), so at the end of a run ``ctx.vclock`` is the virtual
    wall-clock time performance mode reports.
    """

    def __init__(self, config: RunConfig, *, model: CostModel | None = None):
        self.config = config
        self.dim = config.dim
        self.dim_x = config.dim
        self.dim_y = config.dim_y or config.dim
        self.dim_z = config.dim_z or config.dim if config.domain == "slab3d" else 1
        #: shared-memory state of the ``procs`` backend (None elsewhere)
        self.arena = None
        self.img_blocks: tuple[str, str] | None = None
        self.procs_session = 0
        if config.backend == "procs":
            from repro.omp import procs as _procs

            self.arena = _procs.SharedArena()
            name_cur, cur = self.arena.alloc((self.dim_y, self.dim_x), np.uint32)
            name_nxt, nxt = self.arena.alloc((self.dim_y, self.dim_x), np.uint32)
            self.img = Img2D.from_buffers(cur, nxt)
            self.img_blocks = (name_cur, name_nxt)
            self.procs_session = _procs.new_session_id()
        else:
            self.img = Img2D(config.dim, dim_y=self.dim_y)
        #: the work domain scheduled regions iterate by default; the
        #: classic tile grid is just its ``kind == "grid"`` case
        self.domain = make_domain(config)
        #: a plane tile grid is always available (thumbnails, monitors,
        #: whole-frame fast path); for grid domains it *is* the domain
        if isinstance(self.domain, TileGrid):
            self.grid = self.domain
        else:
            self.grid = domain_of(
                "grid", config.dim, self.dim_y, 1,
                config.tile_w, min(config.tile_h, self.dim_y),
            )
        self.nthreads = config.nthreads
        self.policy: SchedulePolicy = config.policy()
        base_model = model if model is not None else DEFAULT_COST_MODEL
        self.model = (
            base_model.scaled(config.time_scale)
            if config.time_scale != 1.0
            else base_model
        )
        self.backend = config.backend
        self.arg = config.arg
        #: free-form kernel state (life grids, mandel viewport, ...);
        #: under ``procs`` every NumPy array is mirrored into shared
        #: memory so pool workers see the same bytes
        if self.arena is not None:
            from repro.omp.procs import SharedData

            self.data: dict[str, Any] = SharedData(self.arena)
        else:
            self.data = {}
        self.vclock = 0.0
        self.iteration = 0
        self.completed_iterations = 0
        #: the telemetry bus: producers publish here, consumers (monitor,
        #: trace recorder) are attached lazily on first use — nothing
        #: is constructed or imported when instrumentation is off
        self._bus = TelemetryBus()
        self._consumers_attached = False
        self._monitor: Monitor | None = None
        self._tracer: TraceRecorder | None = None
        #: set by the MPI launcher when running under ``--mpirun``
        self.mpi: "MpiProcessContext | None" = None
        #: per-iteration hook used by display mode / tests
        self.frame_hook: Callable[[ExecutionContext, int], None] | None = None
        #: when set (a list), every region appends its work profile here —
        #: the capture side of :mod:`repro.expt.replay`
        self.region_log: list | None = None
        #: record per-task read/write footprints (the input of repro.analyze)
        self.collect_footprints = config.footprints
        #: monotonically increasing id of the next parallel/sequential region
        self.region_seq = 0
        #: number of regions the whole-frame fast path executed this run
        self.fastpath_regions = 0

    # -- random streams --------------------------------------------------------
    # built on first draw: a run that never draws never imports numpy.random
    @cached_property
    def rng(self):
        """The run's data generator (synthetic pictures, random grids)."""
        return make_rng(self.config.seed)

    @cached_property
    def jitter_rng(self):
        """The system-noise stream of ``--jitter`` (see :func:`make_jitter_rng`)."""
        return make_jitter_rng(self.config.seed, self.config.run_index)

    # -- telemetry ------------------------------------------------------------
    def _ensure_consumers(self) -> None:
        """Attach the config-selected telemetry consumers, once.

        Called from every instrumentation touchpoint instead of
        ``__init__``: contexts whose config disables monitoring and
        tracing never construct a :class:`Monitor` or
        :class:`TraceRecorder` at all, so their regions publish no
        timeline (see :meth:`instrumented`).
        """
        if self._consumers_attached:
            return
        self._consumers_attached = True
        config = self.config
        if config.monitoring:
            from repro.monitor.activity import Monitor

            self._monitor = self._bus.attach(Monitor(config.nthreads, self.domain))
        if config.trace:
            from repro.trace.events import TraceMeta
            from repro.trace.recorder import TraceRecorder

            self._tracer = self._bus.attach(
                TraceRecorder(
                    TraceMeta(
                        kernel=config.kernel,
                        variant=config.variant,
                        dim=config.dim,
                        tile_w=config.tile_w,
                        tile_h=config.tile_h,
                        ncpus=config.nthreads,
                        schedule=config.schedule,
                        iterations=config.iterations,
                        label=config.trace_label,
                    )
                )
            )
            if config.backend != "sim":
                # real backends record measured times; flag it in the
                # trace so EASYVIEW labels the x-axis honestly (sim
                # traces stay byte-identical to the golden fixtures)
                self._bus.annotate(clock="wall", backend=config.backend)
            if config.domain != "grid":
                # non-default domains stamp their kind and projection so
                # EASYVIEW picks the right rendering (Gantt waves, depth
                # bands); grid traces carry no extra keys, keeping the
                # golden fixtures byte-identical
                self._bus.annotate(
                    domain=config.domain, projection=self.domain.projection(),
                )
            if self.dim_y != config.dim:
                self._bus.annotate(dim_y=self.dim_y)

    @property
    def bus(self) -> TelemetryBus:
        self._ensure_consumers()
        return self._bus

    @property
    def monitor(self) -> Monitor | None:
        if self.config.monitoring:
            self._ensure_consumers()
        return self._monitor

    @property
    def tracer(self) -> TraceRecorder | None:
        if self.config.trace:
            self._ensure_consumers()
        return self._tracer

    def instrumented(self) -> bool:
        """The one place that decides whether regions publish per-task
        timelines: any config-selected consumer, footprint collection, or
        an externally attached bus consumer that observes executions.

        It does not decide the tier: a whole-frame fast region still
        yields its timeline, expanded from the chunk grabs, so only
        footprint collection keeps the per-tile bodies (see
        :meth:`fastpath_active`)."""
        return (
            self.config.monitoring
            or self.config.trace
            or self.collect_footprints
            or self._bus.wants_timelines
        )

    # -- EASYPAP image macros -------------------------------------------------
    @property
    def DIM(self) -> int:
        return self.dim

    @property
    def TILE_W(self) -> int:
        return self.config.tile_w

    @property
    def TILE_H(self) -> int:
        return self.config.tile_h

    def cur_img(self, y: int, x: int) -> int:
        return self.img.cur_img(y, x)

    def set_cur(self, y: int, x: int, value: int) -> None:
        self.img.set_cur(y, x, value)

    def next_img(self, y: int, x: int) -> int:
        return self.img.next_img(y, x)

    def set_next(self, y: int, x: int, value: int) -> None:
        self.img.set_next(y, x, value)

    def swap_images(self) -> None:
        self.img.swap()

    # -- iteration bookkeeping ----------------------------------------------------
    def iterations(self, nb_iter: int) -> Iterator[int]:
        """Iterate ``nb_iter`` times with monitoring/trace bookkeeping.

        Kernels write their outer loop as
        ``for it in ctx.iterations(nb_iter): ...`` — the equivalent of
        EASYPAP driving one monitored frame per iteration.

        Early-terminating kernels (Game of Life returning the iteration
        at which it stabilized) ``return`` from inside the loop; the
        in-flight iteration is still accounted for when the generator is
        closed.
        """
        for _ in range(nb_iter):
            self.iteration += 1
            try:
                yield self.iteration
            except GeneratorExit:
                # consumer returned mid-iteration: close the books first
                self.end_iteration()
                raise
            self.end_iteration()

    def end_iteration(self) -> None:
        self.completed_iterations += 1
        if self.instrumented():
            self.bus.iteration_mark(self.iteration, self.vclock)
        if self.frame_hook is not None:
            self.frame_hook(self, self.iteration)

    # -- resource lifecycle -----------------------------------------------------
    def body(self, method: Callable) -> Callable:
        """Wrap a bound kernel tile method as a backend-portable body.

        ``ctx.parallel_for(ctx.body(self.do_tile))`` behaves exactly like
        ``lambda t: self.do_tile(ctx, t)`` on the sim/threads backends,
        but — unlike a closure — it can also cross the process boundary
        of ``backend="procs"`` (workers re-resolve the kernel method by
        name).  Kernels should prefer it for every tile body.
        """
        return TileBody(self, method)

    def close(self) -> None:
        """Release backend resources (the shared-memory blocks of
        ``procs``).  Idempotent; NumPy views already handed out
        (``RunResult.image``, kernel state) stay readable after the
        blocks are unlinked, only the ``/dev/shm`` names disappear."""
        if self.arena is not None:
            self.arena.release()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- clock and recording ----------------------------------------------------------
    def advance_clock(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"cannot move the clock backwards ({dt})")
        self.vclock += dt

    def next_region(self) -> int:
        """Allocate the id of a new parallel/sequential region."""
        rid = self.region_seq
        self.region_seq += 1
        return rid

    def declare_access(self, reads: Iterable = (), writes: Iterable = ()) -> None:
        """Declare the running task's footprint explicitly.

        For kernels that bypass the :class:`Img2D` accessors (raw NumPy
        slicing, private ``ctx.data`` arrays): each entry is a
        ``(buf, x, y, w, h)`` region, optionally extended with a depth
        extent ``(buf, x, y, w, h, z, d)`` for 3D volumes.  A no-op
        unless footprint collection is active, so hot paths pay one
        branch.
        """
        if not access.collecting():
            return
        for r in reads:
            access.note_read(*r)
        for r in writes:
            access.note_write(*r)

    def fastpath_active(self) -> bool:
        """True when the whole-frame fast path may replace the per-tile
        reference path.

        The fast path is observably identical to the reference (same
        images, same virtual clock, same region log, and — since the
        schedule is simulated from the same per-item works — the same
        timeline for monitoring, traces and ``on_region`` consumers).
        What it cannot produce is footprints: ``declare_access`` runs
        inside the per-tile bodies.  So it engages on the sim backend,
        unless footprints are collected or ``config.fastpath == "off"``.
        """
        return (
            self.backend == "sim"
            and self.config.fastpath != "off"
            and not self.collect_footprints
        )

    # -- parallel constructs (thin wrappers over repro.omp) -----------------------------
    def parallel_for(
        self,
        body: Callable[[Tile], float],
        items: Sequence[Any] | None = None,
        *,
        schedule: SchedulePolicy | str | None = None,
        kind: str = "tile",
        frame: Callable | None = None,
    ):
        from repro.omp.parallel import parallel_for

        return parallel_for(self, body, items, schedule=schedule, kind=kind, frame=frame)

    def parallel_reduce(
        self,
        body,
        items: Sequence[Any] | None = None,
        *,
        combine,
        init,
        schedule: SchedulePolicy | str | None = None,
        kind: str = "tile",
        frame: Callable | None = None,
    ):
        from repro.omp.parallel import parallel_reduce

        return parallel_reduce(
            self, body, items, combine=combine, init=init,
            schedule=schedule, kind=kind, frame=frame,
        )

    def task_region(self, *, kind: str = "task"):
        from repro.omp.tasks import TaskRegion

        return TaskRegion(self, kind=kind)

    def sequential_for(
        self,
        body: Callable[[Any], float],
        items: Iterable[Any] | None = None,
        *,
        kind: str = "tile",
        frame: Callable | None = None,
    ) -> float:
        from repro.omp.parallel import sequential_for

        return sequential_for(self, body, items, kind=kind, frame=frame)

    def run_on_master(self, fn: Callable[[], Any], work: float = 0.0) -> Any:
        """Run a sequential section (the ``#pragma omp single`` zoom() call)."""
        result = fn()
        if work:
            self.advance_clock(self.model.time_of(work))
        if self.region_log is not None:
            self.region_log.append(("master", float(work)))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionContext({self.config.label()})"
