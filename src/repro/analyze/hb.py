"""Ancestor bitsets and the happens-before relation of a run.

The runtime's synchronization structure makes the global picture easy:
every region (``parallel_for``, ``parallel_reduce``, ``sequential_for``,
task region) is forked and joined by the master, so *tasks of different
regions are always ordered* — the fork-join barrier is a happens-before
edge.  All concurrency therefore lives within a single region:

* ``seq`` regions run their tasks back-to-back on one CPU — totally
  ordered, never racy;
* ``par``/``reduce`` regions are OpenMP worksharing loops: the spec
  orders nothing between two chunks of the same loop, so every task
  pair is *logically concurrent* — regardless of where the simulated
  schedule happened to place them.  (Detecting against logical
  concurrency rather than one observed schedule is what makes reports
  schedule-independent, the ThreadSanitizer lesson.)
* ``dag`` regions (``task`` + ``depend``) order a task after every
  ancestor.  Task ids follow submission order and a ``depend`` edge
  only points back to an earlier task, so one forward pass in id order
  gives each task its ancestors as a Python-int bitset (bit ``p`` set
  for every ancestor ``p``); two tasks are concurrent iff neither is
  an ancestor of the other.
"""

from __future__ import annotations

from repro.analyze.footprint import RegionTasks

__all__ = ["concurrency_of"]


def _ancestors(region: RegionTasks) -> dict[int, int]:
    """Ancestor bitsets of a ``dag`` region's tasks, keyed by task id.

    A predecessor absent from the region (or not yet seen in id order)
    contributes nothing.
    """
    anc: dict[int, int] = {}
    for node in region.tasks:
        bits = 0
        for p in node.preds:
            pbits = anc.get(p)
            if pbits is not None:
                bits |= pbits | (1 << p)
        anc[node.tid] = bits
    return anc


def concurrency_of(region: RegionTasks):
    """A predicate ``concurrent(tid_a, tid_b)`` for tasks of ``region``."""
    if region.rmode == "seq":
        return lambda a, b: False
    if region.rmode == "dag":
        anc = _ancestors(region)

        def dag_concurrent(a: int, b: int) -> bool:
            aa, ab = anc.get(a), anc.get(b)
            if aa is None or ab is None:
                return True  # unknown ordering: assume concurrent (sound)
            return a != b and not (ab >> a & 1 or aa >> b & 1)

        return dag_concurrent
    # worksharing: every pair of distinct tasks is logically concurrent
    return lambda a, b: a != b
