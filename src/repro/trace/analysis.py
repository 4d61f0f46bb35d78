"""Bottleneck analysis: *why* a run is slower than ideal.

EASYVIEW lets students "understand performance issues" (paper §V); this
module turns a trace into the standard decomposition used to explain a
disappointing speedup:

  span = busy/ncpus + imbalance waste + (everything else: overheads)

per iteration and for the whole run, plus the tasks on the critical
end of each iteration (the ones whose completion defines the barrier).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.timeline import cpu_busy
from repro.trace.events import Trace, TraceEvent

__all__ = ["IterationAnalysis", "analyze_iterations", "efficiency", "critical_tasks",
           "bottleneck_report"]


@dataclass(frozen=True)
class IterationAnalysis:
    """Efficiency decomposition of one iteration."""

    iteration: int
    span: float          # first start .. last end
    busy: float          # sum of task durations
    ncpus: int

    @property
    def ideal(self) -> float:
        """Perfectly balanced time: busy / ncpus."""
        return self.busy / self.ncpus if self.ncpus else 0.0

    @property
    def efficiency(self) -> float:
        """Parallel efficiency in [0, 1]: ideal / span."""
        return self.ideal / self.span if self.span > 0 else 1.0

    @property
    def waste(self) -> float:
        """CPU-time lost to imbalance/idleness during the iteration."""
        return max(self.span * self.ncpus - self.busy, 0.0)


def analyze_iterations(trace: Trace) -> list[IterationAnalysis]:
    """Per-iteration efficiency decomposition."""
    rows: dict[int, list[tuple[int, float, float]]] = {}
    for e in trace.events:
        rows.setdefault(e.iteration, []).append((e.cpu, e.start, e.end))
    ncpus = trace.ncpus
    return [
        IterationAnalysis(
            iteration=it,
            span=max(end for _, _, end in r) - min(start for _, start, _ in r),
            busy=sum(cpu_busy(r, ncpus)),
            ncpus=ncpus,
        )
        for it, r in sorted(rows.items())
    ]


def efficiency(trace: Trace) -> float:
    """Whole-run parallel efficiency (busy / (ncpus * total span))."""
    parts = analyze_iterations(trace)
    total_span = sum(p.span for p in parts)
    total_busy = sum(p.busy for p in parts)
    if total_span <= 0 or trace.ncpus == 0:
        return 1.0
    return total_busy / (trace.ncpus * total_span)


def critical_tasks(trace: Trace, iteration: int, top: int = 3) -> list[TraceEvent]:
    """The tasks finishing last in an iteration — the ones every other
    CPU waits for at the implicit barrier."""
    events = trace.iteration_events(iteration)
    return sorted(events, key=lambda e: e.end, reverse=True)[:top]


def bottleneck_report(trace: Trace, top: int = 3) -> str:
    """Human-readable analysis: efficiency per iteration + what defined
    each iteration's end."""
    parts = analyze_iterations(trace)
    if not parts:
        return "(empty trace)"
    lines = [
        f"overall parallel efficiency: {efficiency(trace) * 100:.1f}% "
        f"on {trace.ncpus} CPUs"
    ]
    worst = min(parts, key=lambda p: p.efficiency)
    for p in parts:
        marker = "  <-- worst" if p.iteration == worst.iteration else ""
        lines.append(
            f"iteration {p.iteration:3d}: span {p.span * 1e3:9.3f} ms, "
            f"ideal {p.ideal * 1e3:9.3f} ms, efficiency {p.efficiency * 100:5.1f}%, "
            f"waste {p.waste * 1e3:9.3f} ms{marker}"
        )
    lines.append(f"\ncritical tasks of iteration {worst.iteration} "
                 "(the barrier waits for these):")
    for e in critical_tasks(trace, worst.iteration, top):
        where = f"tile(x={e.x}, y={e.y}, {e.w}x{e.h})" if e.has_tile else e.kind
        lines.append(
            f"  CPU {e.cpu}: {where} — {e.duration * 1e6:.1f} us, "
            f"ends at {e.end * 1e3:.3f} ms"
        )
    return "\n".join(lines)
