"""Task graphs with OpenMP-style dependencies.

Models ``#pragma omp task depend(in: ...) depend(out/inout: ...)`` as
used in the connected-components assignment (paper Fig. 11): edges are
*inferred* from the data each task declares it reads and writes, with
the standard semantics —

* a reader depends on the previous writer of the datum,
* a writer depends on the previous writer **and** every reader since.

An explicit-edge API is also available for synthetic graphs in tests.

Either way an edge only links an already submitted task to the new one,
so a task's predecessors all have lower ids: id order is a topological
order, and every query below is one forward pass over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Sequence

from repro.errors import DependencyError

__all__ = ["TaskNode", "TaskGraph"]


@dataclass
class TaskNode:
    """One task: an attached payload, a cost, and its predecessors' ids."""

    tid: int
    item: Any
    cost: float = 1.0
    preds: set[int] = field(default_factory=set)
    meta: dict = field(default_factory=dict)


class TaskGraph:
    """A DAG of tasks built incrementally, in submission order."""

    def __init__(self):
        self.nodes: list[TaskNode] = []
        self._last_writer: dict[Hashable, int] = {}
        self._readers_since: dict[Hashable, list[int]] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    # -- construction -----------------------------------------------------------
    def add_task(
        self,
        item: Any,
        cost: float = 1.0,
        *,
        depends_on: Iterable[int] = (),
        reads: Sequence[Hashable] = (),
        writes: Sequence[Hashable] = (),
        meta: dict | None = None,
    ) -> int:
        """Submit a task; returns its id.

        ``reads``/``writes`` are data tokens (e.g. tile grid coordinates)
        mirroring ``depend(in: ...)`` / ``depend(inout: ...)``; a token in
        both behaves as ``inout``.  ``depends_on`` adds explicit edges.
        """
        tid = len(self.nodes)
        node = TaskNode(tid=tid, item=item, cost=cost, meta=dict(meta or {}))
        self.nodes.append(node)
        for p in depends_on:
            self._add_edge(p, tid)
        for token in reads:
            w = self._last_writer.get(token)
            if w is not None:
                self._add_edge(w, tid)
            self._readers_since.setdefault(token, []).append(tid)
        for token in writes:
            w = self._last_writer.get(token)
            if w is not None and w != tid:
                self._add_edge(w, tid)
            for r in self._readers_since.get(token, ()):
                if r != tid:
                    self._add_edge(r, tid)
            self._last_writer[token] = tid
            self._readers_since[token] = []
        return tid

    def _add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            raise DependencyError(f"task {dst} cannot depend on itself")
        if not 0 <= src < dst:
            raise DependencyError(f"unknown predecessor task {src}")
        self.nodes[dst].preds.add(src)

    # -- queries -------------------------------------------------------------------
    def depth(self) -> int:
        """Length (in tasks) of the critical path — the wave count of Fig. 12."""
        return max(self.levels(), default=0)

    def levels(self) -> list[int]:
        """Per-task wavefront index (1-based; roots are level 1)."""
        level: list[int] = []
        for node in self.nodes:
            level.append(1 + max((level[p] for p in node.preds), default=0))
        return level

    def critical_path_time(self) -> float:
        """Longest cost-weighted path: a lower bound on any schedule."""
        finish: list[float] = []
        for node in self.nodes:
            finish.append(max((finish[p] for p in node.preds), default=0.0) + node.cost)
        return max(finish, default=0.0)
