"""Trace statistics: durations, distributions, imbalance.

The numeric backend of EASYVIEW's visual impressions — e.g. "many tasks
are approximately 10 times faster than their original version"
(Fig. 10) becomes a quantile comparison here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sched.timeline import cpu_busy, imbalance
from repro.trace.analysis import analyze_iterations
from repro.trace.events import Trace

__all__ = ["DurationStats", "duration_stats", "iteration_spans", "per_cpu_busy", "task_imbalance"]


@dataclass(frozen=True)
class DurationStats:
    """Summary of a set of task durations (seconds)."""

    count: int
    total: float
    mean: float
    median: float
    p10: float
    p90: float
    vmin: float
    vmax: float

    @classmethod
    def of(cls, durations: list[float]) -> "DurationStats":
        if not durations:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        a = np.asarray(durations, dtype=np.float64)
        return cls(
            count=int(a.size),
            total=float(a.sum()),
            mean=float(a.mean()),
            median=float(np.median(a)),
            p10=float(np.percentile(a, 10)),
            p90=float(np.percentile(a, 90)),
            vmin=float(a.min()),
            vmax=float(a.max()),
        )


def duration_stats(trace: Trace, *, kind: str | None = "tile") -> DurationStats:
    """Statistics of task durations, optionally filtered by event kind."""
    durs = [e.duration for e in trace.events if kind is None or e.kind == kind]
    return DurationStats.of(durs)


def iteration_spans(trace: Trace) -> dict[int, float]:
    """Per-iteration wall span (first start to last end)."""
    return {p.iteration: p.span for p in analyze_iterations(trace)}


def per_cpu_busy(trace: Trace) -> list[float]:
    return cpu_busy(((e.cpu, e.start, e.end) for e in trace.events), trace.ncpus)


def task_imbalance(trace: Trace) -> float:
    """max/mean per-CPU busy time (1.0 = perfect balance)."""
    return imbalance(per_cpu_busy(trace))
