"""Timelines: the output of the scheduling simulator.

A :class:`Timeline` is one executed region as columns — which item ran
on which (virtual) CPU, from when to when — the exact information
EASYPAP's monitoring windows and EASYVIEW traces are built from.  Every
scheduler fills it with one constructor call and the monitor and the
trace recorder read the columns; :class:`TaskExec` is only the row view
iteration yields.  The per-CPU accounting every consumer shares (busy
time, idleness, imbalance) ends the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SimulationError

__all__ = ["TaskExec", "Timeline", "cpu_busy", "idleness", "imbalance"]

_EPS = 1e-9


@dataclass(frozen=True)
class TaskExec:
    """One task execution on a virtual CPU: a row of a :class:`Timeline`.

    ``item`` is whatever was scheduled (typically a :class:`~repro.core.tiling.Tile`);
    ``meta`` carries the row's annotations (iteration number, region,
    item index, whether the task was stolen, ...).
    """

    item: Any
    cpu: int
    start: float
    end: float
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """One region's task executions, column by column.

    Per task (one row each, in the producer's order): ``index``, the
    position of its item in the region's ``items``, and its ``cpu``,
    ``start`` and ``end``.  Region-wide: ``meta`` and ``ncpus`` (inferred
    from ``cpu`` when omitted).  Sparse per-task columns, indexed by
    item position, exist only where a producer has them:

    * ``stolen`` — the positions a thief ran;
    * ``preds`` — a DAG region's predecessor positions; its rows carry
      their ``tid`` (the position) and sorted ``preds``;
    * ``tasks`` — a task region's node meta dicts, by reference; its
      rows carry the node meta instead of ``index``;
    * ``columns`` — named per-task values (the GPU lockstep counters).
    """

    def __init__(
        self,
        items: Sequence[Any] = (),
        index: Sequence[int] = (),
        cpu: Sequence[int] = (),
        start: Sequence[float] = (),
        end: Sequence[float] = (),
        *,
        ncpus: int | None = None,
        meta: dict | None = None,
        stolen: frozenset | set = frozenset(),
        preds: Sequence[Iterable[int]] | None = None,
        tasks: Sequence[dict] | None = None,
        columns: dict[str, Sequence] | None = None,
    ):
        if not len(index) == len(cpu) == len(start) == len(end):
            raise SimulationError("timeline columns differ in length")
        self.items = items
        self.index = index
        self.cpu = cpu
        self.start = start
        self.end = end
        if ncpus is None:
            ncpus = 1 + max(cpu, default=-1)
        self.ncpus = max(ncpus, 0)
        self.meta = {} if meta is None else meta
        self.stolen = stolen
        self.preds = preds
        self.tasks = tasks
        self.columns = columns or {}

    # -- rows -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    def annotations(self, base: dict | None = None) -> Iterator[dict]:
        """Each row's annotations as a fresh dict, in row order: ``base``
        (default: the region meta), then ``index`` (a task region: the
        node's meta), ``stolen``, ``tid`` and ``preds``, then
        ``columns``.  A key ``base`` already holds keeps its place."""
        base = self.meta if base is None else base
        stolen, preds, tasks = self.stolen, self.preds, self.tasks
        columns = list(self.columns.items())
        for i in self.index:
            m = dict(base)
            if tasks is None:
                m["index"] = i
            else:
                m.update(tasks[i])
            if i in stolen:
                m["stolen"] = True
            if preds is not None:
                m["tid"] = i
                m["preds"] = sorted(preds[i])
            for name, col in columns:
                m[name] = col[i]
            yield m

    def __iter__(self) -> Iterator[TaskExec]:
        items = self.items
        for i, cpu, start, end, m in zip(
            self.index, self.cpu, self.start, self.end, self.annotations()
        ):
            yield TaskExec(items[i], cpu, start, end, m)

    # -- aggregate metrics -------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Virtual completion time (max end over all executions)."""
        return max(self.end, default=0.0)

    def busy_per_cpu(self) -> list[float]:
        return cpu_busy(zip(self.cpu, self.start, self.end), self.ncpus)

    def speedup_vs(self, seq_time: float) -> float:
        """Speedup against a sequential execution time."""
        span = self.makespan
        return seq_time / span if span > 0 else float("inf")

    # -- per-CPU structure ----------------------------------------------------------
    def lanes(self) -> dict[int, list[TaskExec]]:
        """Executions grouped per CPU, sorted by start time (Gantt lanes)."""
        out: dict[int, list[TaskExec]] = {c: [] for c in range(self.ncpus)}
        for e in self:
            out.setdefault(e.cpu, []).append(e)
        for lane in out.values():
            lane.sort(key=lambda e: (e.start, e.end))
        return out

    # -- invariants -------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`SimulationError` if broken.

        * every execution has ``0 <= start <= end``;
        * executions on the same CPU never overlap.
        """
        for e in self:
            if e.start < -_EPS or e.end < e.start - _EPS:
                raise SimulationError(f"bad interval in {e}")
            if not (0 <= e.cpu < self.ncpus):
                raise SimulationError(f"cpu {e.cpu} out of range in {e}")
        for cpu, lane in self.lanes().items():
            for a, b in zip(lane, lane[1:]):
                if b.start < a.end - _EPS:
                    raise SimulationError(
                        f"overlap on cpu {cpu}: {a} then {b}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Timeline({len(self)} execs, ncpus={self.ncpus}, "
            f"makespan={self.makespan:.6g})"
        )


# -- per-CPU accounting ---------------------------------------------------------


def cpu_busy(rows: Iterable[tuple[int, float, float]], ncpus: int) -> list[float]:
    """Per-CPU busy time of ``(cpu, start, end)`` rows, each CPU's
    durations summed in row order; rows on a CPU outside
    ``range(ncpus)`` count nowhere."""
    busy = [0.0] * ncpus
    for cpu, start, end in rows:
        if 0 <= cpu < ncpus:
            busy[cpu] += end - start
    return busy


def idleness(busy: Sequence[float], span: float) -> float:
    """Idle CPU-time over ``span`` (the idleness-history metric)."""
    return sum(max(span - b, 0.0) for b in busy)


def imbalance(busy: Sequence[float]) -> float:
    """max busy / mean busy, >= 1.0; 1.0 means perfect balance (or no
    work at all)."""
    mean = sum(busy) / len(busy) if busy else 0.0
    return max(busy) / mean if mean > 0 else 1.0
