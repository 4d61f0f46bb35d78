"""MPI wait-for-graph deadlock analysis.

Upgrades the comm layer's recv-timeout heuristic ("blocked for 60s —
deadlock?") into an actual diagnosis.  While a rank is blocked in a
receive, the world keeps a registry of who waits for whom; every poll
interval the blocked rank snapshots that registry and calls
:func:`diagnose`, which recognizes three provable situations:

* **cycle** — the rank's wait chain (each rank blocked on a specific
  source) loops back to itself: the classic recv/recv deadlock;
* **finished-peer** — the awaited source has already terminated without
  a matching send; any frames the blocked rank has drained from its
  lanes that match neither the source nor the tag are reported as
  near-misses (the "sent with the wrong tag" bug);
* **starved ANY_SOURCE** — the rank waits on ``ANY_SOURCE`` but every
  other rank is blocked or finished, so nobody can ever send.

The analysis is conservative: a rank whose state cannot be established
without blocking is treated as active and no verdict is produced — the
caller simply retries at the next poll, and the hard timeout remains
the backstop.

This module is pure (no threading, no I/O): the comm layer feeds it
:class:`RankWait`/:class:`PendingMsg` snapshots, and wraps a returned
:class:`DeadlockReport` in :class:`repro.errors.DeadlockError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = ["ANY", "RankWait", "PendingMsg", "DeadlockReport", "diagnose"]

#: wildcard source/tag (mirrors comm.ANY_SOURCE / comm.ANY_TAG)
ANY = -1


def _fmt(v: int) -> str:
    return "any" if v == ANY else str(v)


@dataclass(frozen=True)
class RankWait:
    """One rank observed blocked in a receive with no matching message."""

    rank: int
    source: int  # awaited source rank, or ANY
    tag: int  # awaited tag, or ANY

    def describe(self) -> str:
        return (
            f"rank {self.rank} blocked in "
            f"recv(source={_fmt(self.source)}, tag={_fmt(self.tag)})"
        )


@dataclass(frozen=True)
class PendingMsg:
    """A frame the blocked rank has drained from its lanes that does
    *not* match its receive (wrong source or wrong tag)."""

    source: int
    tag: int

    def describe(self) -> str:
        return f"from rank {self.source} with tag {self.tag}"


@dataclass(frozen=True)
class DeadlockReport:
    """A provable deadlock involving ``rank``."""

    kind: str  # "cycle" | "finished-peer" | "starved"
    rank: int
    waits: tuple[RankWait, ...] = ()  # the blocked ranks involved
    cycle: tuple[int, ...] = ()  # for kind == "cycle": r0 -> r1 -> ... -> r0
    finished: tuple[int, ...] = ()  # terminated ranks involved
    unmatched: tuple[PendingMsg, ...] = ()

    def describe(self) -> str:
        if self.kind == "cycle":
            arrows = " -> ".join(str(r) for r in self.cycle)
            head = f"deadlock detected: cyclic wait among ranks {arrows}"
        elif self.kind == "finished-peer":
            me = self.waits[0]
            head = (
                f"deadlock detected: {me.describe()} but rank "
                f"{self.finished[0]} has already finished"
            )
        else:  # starved
            me = self.waits[0]
            head = (
                f"deadlock detected: {me.describe()} but every other rank "
                "is blocked or finished — nobody can send"
            )
        lines = [head]
        if self.kind == "cycle":
            lines += ["  " + w.describe() for w in self.waits]
        if self.unmatched:
            lines.append(
                f"  {len(self.unmatched)} pending message(s) match neither "
                "the source nor the tag: "
                + "; ".join(m.describe() for m in self.unmatched)
            )
        return "\n".join(lines)


def diagnose(
    rank: int,
    waits: Mapping[int, RankWait],
    finished: frozenset[int] | set[int],
    size: int,
    unmatched: Sequence[PendingMsg] = (),
) -> DeadlockReport | None:
    """Decide whether ``rank`` is provably deadlocked.

    ``waits`` must contain only ranks known to be *stuck* (blocked with
    no matching pending message) — undecidable ranks are omitted by the
    caller and break any would-be cycle, producing no verdict.
    """
    me = waits.get(rank)
    if me is None:
        return None
    unmatched = tuple(unmatched)

    if me.source == ANY:
        others = [r for r in range(size) if r != rank]
        if others and all(r in finished or r in waits for r in others):
            return DeadlockReport(
                kind="starved",
                rank=rank,
                waits=(me,),
                finished=tuple(sorted(set(finished) & set(others))),
                unmatched=unmatched,
            )
        return None

    # follow the chain of specific-source waits starting at ``rank``
    chain = [rank]
    cur = me
    while True:
        nxt = cur.source
        if nxt in finished:
            # only the direct waiter reports; transitive waiters see the
            # reporter's own termination and cascade at a later poll
            if len(chain) == 1:
                return DeadlockReport(
                    kind="finished-peer",
                    rank=rank,
                    waits=(me,),
                    finished=(nxt,),
                    unmatched=unmatched,
                )
            return None
        if nxt == rank:
            chain.append(nxt)
            return DeadlockReport(
                kind="cycle",
                rank=rank,
                waits=tuple(waits[r] for r in chain[:-1]),
                cycle=tuple(chain),
                unmatched=unmatched,
            )
        w = waits.get(nxt)
        if w is None or w.source == ANY or nxt in chain:
            # active/undecidable rank, ANY_SOURCE wait, or a cycle not
            # through us (its members will report it) — no verdict
            return None
        chain.append(nxt)
        cur = w
