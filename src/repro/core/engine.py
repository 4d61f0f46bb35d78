"""The engine: EASYPAP's hidden main loop.

``run(config)`` instantiates the kernel, builds the execution context,
drives the requested iterations through the chosen variant, and collects
everything the surrounding tools need: virtual/wall times, the final
image, monitoring records and the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.config import RunConfig
from repro.core.context import ExecutionContext
from repro.core.kernel import Kernel, get_kernel
from repro.sched.costmodel import CostModel
from repro.util.timing import Stopwatch, format_duration

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.activity import Monitor
    from repro.trace.events import Trace

__all__ = ["run", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one kernel run."""

    config: RunConfig
    completed_iterations: int
    virtual_time: float  # simulated seconds (sim backend)
    wall_time: float  # real seconds spent executing the variant
    image: np.ndarray  # final current image (snapshot)
    monitor: Monitor | None = None
    trace: Trace | None = None
    early_stop: int = 0  # iteration at which the kernel stabilized (0 = never)
    context: ExecutionContext | None = None
    rank_results: list["RunResult"] = field(default_factory=list)  # MPI runs
    fastpath_regions: int = 0  # regions executed by the whole-frame fast path
    #: aggregated telemetry counters (regions, steals, ...)
    counters: dict = field(default_factory=dict)
    #: always 0 (no channel loses events); read by perfbench/spans.py
    dropped_events: int = 0

    @property
    def elapsed(self) -> float:
        """The time performance mode reports: virtual for the simulator
        backend, wall-clock for the real backends (threads, procs)."""
        return self.virtual_time if self.config.backend == "sim" else self.wall_time

    def summary(self) -> str:
        """EASYPAP's performance-mode output line."""
        return (
            f"{self.completed_iterations} iterations completed in "
            f"{format_duration(self.elapsed)}"
        )

    def speedup_vs(self, reference: "RunResult | float") -> float:
        ref = reference.elapsed if isinstance(reference, RunResult) else float(reference)
        return ref / self.elapsed if self.elapsed > 0 else float("inf")


def run(
    config: RunConfig,
    *,
    model: CostModel | None = None,
    frame_hook: Callable[[ExecutionContext, int], None] | None = None,
    kernel: Kernel | None = None,
) -> RunResult:
    """Execute one configuration and return its :class:`RunResult`.

    ``frame_hook(ctx, iteration)`` is invoked at each iteration boundary
    (the replacement for SDL frame refresh: dump images, animate, ...).
    MPI configurations (``mpi_np > 0``) are dispatched to the launcher,
    which picks the rank substrate from ``config.mpi_backend``: real
    processes over shared-memory lanes (``procs``, the default) or
    threads in this interpreter (``inproc``).
    """
    if config.mpi_np > 0:
        from repro.mpi.launcher import mpi_run

        return mpi_run(config, model=model, frame_hook=frame_hook)

    kernel = kernel if kernel is not None else get_kernel(config.kernel)
    compute = kernel.compute_fn(config.variant)
    config = kernel.run_config(config)
    ctx = ExecutionContext(config, model=model)
    try:
        ctx.frame_hook = frame_hook
        kernel.init(ctx)
        kernel.draw(ctx)
        if config.display:
            kernel.refresh_img(ctx)

        sw = Stopwatch().start()
        v0 = ctx.vclock
        early = int(compute(ctx, config.iterations) or 0)
        wall = sw.stop()

        kernel.refresh_img(ctx)
        kernel.finalize(ctx)
    finally:
        # unlink any shared-memory blocks (procs backend) even when the
        # kernel raises or the run is interrupted; already-handed-out
        # views (ctx.img, ctx.data arrays) stay readable
        ctx.close()
    return RunResult(
        config=config,
        completed_iterations=ctx.completed_iterations,
        virtual_time=ctx.vclock - v0,
        wall_time=wall,
        image=ctx.img.copy_cur(),
        monitor=ctx.monitor,
        trace=ctx.tracer.to_trace() if ctx.tracer else None,
        early_stop=early,
        context=ctx,
        fastpath_regions=ctx.fastpath_regions,
        counters=dict(ctx.bus.counters),
    )
