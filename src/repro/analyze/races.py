"""The data-race detector.

For every synchronization region of a footprint-carrying trace, find
pairs of logically concurrent tasks (per :mod:`repro.analyze.hb`) whose
footprints conflict: one writes a buffer rectangle the other reads or
writes.  Candidate pairs are pruned with a spatial hash, so cost stays
near-linear in the number of footprint regions.

Reports are actionable: they name the two tasks, their tiles, the
buffer and the overlapping rectangle, and — for task-graph regions —
the ``depend`` token whose absence broke the ordering.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analyze.footprint import RegionTasks, TaskNode, tasks_by_region
from repro.analyze.hb import concurrency_of
from repro.trace.events import Trace

__all__ = ["RaceReport", "RaceCheckResult", "detect_races", "check_races"]

#: spatial-hash cell side, in pixels
_CELL = 32

#: stop after this many distinct racy pairs (reports stay readable)
MAX_REPORTS = 20


@dataclass(frozen=True)
class RaceReport:
    """One detected race: two concurrent tasks with conflicting accesses."""

    kind: str  # "write-write" or "read-write"
    buf: str
    overlap: tuple[int, int, int, int]  # x, y, w, h
    iteration: int
    region: int
    rmode: str
    a: TaskNode
    b: TaskNode
    a_access: str  # "read" | "write"
    b_access: str
    advice: str

    def describe(self) -> str:
        ox, oy, ow, oh = self.overlap
        lines = [
            f"{self.kind} race on buffer {self.buf!r} "
            f"(iteration {self.iteration}, region {self.region}):",
            f"  {self.a.describe()} {self.a_access}s "
            f"and {self.b.describe()} {self.b_access}s "
            f"the rectangle x={ox} y={oy} {ow}x{oh}",
            f"  {self.advice}",
        ]
        return "\n".join(lines)


@dataclass
class RaceCheckResult:
    """Outcome of :func:`check_races` on one trace."""

    races: list[RaceReport]
    regions_checked: int
    tasks_checked: int
    truncated: bool = False

    @property
    def clean(self) -> bool:
        return not self.races

    def describe(self) -> str:
        if self.clean:
            return (
                f"no data races: {self.tasks_checked} tasks across "
                f"{self.regions_checked} parallel regions, all conflicting "
                f"accesses ordered by happens-before"
            )
        head = f"{len(self.races)} data race(s) detected"
        if self.truncated:
            head += f" (report truncated at {MAX_REPORTS})"
        body = "\n\n".join(r.describe() for r in self.races)
        return f"{head}:\n\n{body}"


def _cells(x: int, y: int, w: int, h: int):
    for cy in range(y // _CELL, (y + h - 1) // _CELL + 1):
        for cx in range(x // _CELL, (x + w - 1) // _CELL + 1):
            yield (cx, cy)


def _overlap(a, b):
    """Intersection of two (x, y, w, h) rects, or None."""
    x0, y0 = max(a[0], b[0]), max(a[1], b[1])
    x1 = min(a[0] + a[2], b[0] + b[2])
    y1 = min(a[1] + a[3], b[1] + b[3])
    if x0 >= x1 or y0 >= y1:
        return None
    return (x0, y0, x1 - x0, y1 - y0)


def _advice(region: RegionTasks, writer: TaskNode, other: TaskNode, buf: str) -> str:
    if region.rmode == "dag":
        missing = next(iter(writer.depend_out), None)
        if missing is not None and missing not in other.depend_in:
            return (
                f"missing ordering edge: {writer.describe()} declares "
                f"depend(out: {missing}) but {other.describe()} does not list "
                f"it in depend(in: {list(other.depend_in)}) — add the "
                f"in-dependence to order them"
            )
        return (
            "no dependency path orders these tasks — add a depend clause "
            "creating a happens-before edge between them"
        )
    return (
        "tasks of a worksharing loop run concurrently with no ordering: "
        f"make writes to {buf!r} disjoint per task, write to the other "
        "buffer of a double-buffer pair, or fold shared results with "
        "ctx.parallel_reduce"
    )


def _region_races(region: RegionTasks, reports: list[RaceReport]) -> int:
    """Append races of one region to ``reports``; returns tasks examined."""
    tasks = region.tasks
    if not region.parallel or len(tasks) < 2:
        return len(tasks)
    concurrent = concurrency_of(region)

    # spatial hash: buffer -> cell -> list of (rect, task position, is_write)
    index: dict[str, dict[tuple, list]] = defaultdict(lambda: defaultdict(list))
    for pos, node in enumerate(tasks):
        for is_write, regs in ((False, node.reads), (True, node.writes)):
            for r in regs:
                buf, x, y, w, h = r[:5]
                # optional (z, d) depth extent of 3D regions; 2D regions
                # conservatively span every plane (see regions_overlap)
                zext = tuple(r[5:7]) or None
                entry = ((x, y, w, h), pos, is_write, zext)
                buckets = index[buf]
                for cell in _cells(x, y, w, h):
                    buckets[cell].append(entry)

    seen: set[tuple] = set()
    for buf, buckets in index.items():
        for entries in buckets.values():
            for i in range(len(entries)):
                rect_i, pos_i, wr_i, z_i = entries[i]
                for j in range(i + 1, len(entries)):
                    rect_j, pos_j, wr_j, z_j = entries[j]
                    if pos_i == pos_j or not (wr_i or wr_j):
                        continue
                    if (
                        z_i is not None
                        and z_j is not None
                        and min(z_i[0] + z_i[1], z_j[0] + z_j[1])
                        <= max(z_i[0], z_j[0])
                    ):
                        continue  # disjoint depth ranges: no 3D overlap
                    key = (min(pos_i, pos_j), max(pos_i, pos_j), buf)
                    if key in seen:
                        continue
                    a, b = tasks[pos_i], tasks[pos_j]
                    if not concurrent(a.tid, b.tid):
                        continue
                    ov = _overlap(rect_i, rect_j)
                    if ov is None:
                        continue
                    seen.add(key)
                    if len(reports) >= MAX_REPORTS:
                        return len(tasks)
                    writer, other = (a, b) if wr_i else (b, a)
                    reports.append(
                        RaceReport(
                            kind="write-write" if (wr_i and wr_j) else "read-write",
                            buf=buf,
                            overlap=ov,
                            iteration=region.iteration,
                            region=region.region,
                            rmode=region.rmode,
                            a=a,
                            b=b,
                            a_access="write" if wr_i else "read",
                            b_access="write" if wr_j else "read",
                            advice=_advice(region, writer, other, buf),
                        )
                    )
    return len(tasks)


def detect_races(trace: Trace) -> list[RaceReport]:
    """All races of a trace (capped at :data:`MAX_REPORTS`)."""
    return check_races(trace).races


def check_races(trace: Trace) -> RaceCheckResult:
    """Run the happens-before race analysis over a recorded trace."""
    reports: list[RaceReport] = []
    nregions = ntasks = 0
    for region in tasks_by_region(trace):
        ntasks += _region_races(region, reports)
        if region.parallel:
            nregions += 1
    return RaceCheckResult(
        races=reports,
        regions_checked=nregions,
        tasks_checked=ntasks,
        truncated=len(reports) >= MAX_REPORTS,
    )
