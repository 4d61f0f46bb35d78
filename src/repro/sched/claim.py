"""The one chunk-claim rule of every backend.

A worksharing loop hands out chunks through :func:`claim`, whoever runs
it: the simulator's virtual CPUs (:mod:`repro.sched.simulator`), the
``threads`` team under a ``threading.Lock`` and the ``procs`` workers
under the pool lock (:mod:`repro.omp.procs`).  The rule works over one
flat int *state*, the layout of the procs pool's shared ``ctrl`` array::

    [queue cursor, steal count, head0, tail0, head1, tail1, ...]

:func:`plan` builds that state and a chunk table for a policy:

* **static** gives each CPU a ``[head, tail)`` range of table ids from
  :meth:`~repro.sched.policies.StaticSchedule.assignment`; the cursor
  starts past the table, so the queue is empty;
* **dynamic, guided** put :meth:`chunk_queue` in the table and leave
  the CPU ranges empty: every CPU takes the entry under the cursor;
* **nonmonotonic:dynamic** gives each CPU a ``[lo, hi)`` block of
  iterations from :meth:`initial_blocks` and needs no table.

A CPU takes, in order: the queue head; the front of its own range (one
table id, or ``k`` iterations of its block); else — stealing family
only — ``k`` iterations (``steal_half``: ``max(remaining // 2, k)``)
from the *back* of the block of the victim with the most remaining
iterations, lowest index on ties, and the steal count goes up by one.
``None`` means nothing is left for that CPU.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.errors import ScheduleError
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    SchedulePolicy,
    StaticSchedule,
)

__all__ = ["Plan", "plan", "claim", "state_words"]


class Plan(NamedTuple):
    """What :func:`claim` reads besides the state."""

    #: ``(lo, hi)`` rows: the queue (dynamic, guided) or the per-CPU
    #: chunks the static ranges index; empty for the stealing family
    table: Sequence
    #: the stealing family's chunk; 0 when the CPU ranges hold table ids
    #: and nobody steals
    k: int = 0
    steal_half: bool = False


def state_words(ncpus: int) -> int:
    """Length of the state of an ``ncpus`` team."""
    return 2 + 2 * ncpus


def plan(policy: SchedulePolicy, n: int, ncpus: int) -> tuple[Plan, list[int]]:
    """The plan and initial state of ``policy`` over ``n`` iterations."""
    state = [0] * state_words(ncpus)
    if isinstance(policy, StaticSchedule):
        table: list[tuple[int, int]] = []
        for cpu, chunks in enumerate(policy.assignment(n, ncpus)):
            state[2 + 2 * cpu] = len(table)
            table += [(c.lo, c.hi) for c in chunks]
            state[3 + 2 * cpu] = len(table)
        state[0] = len(table)
        return Plan(table), state
    if isinstance(policy, NonMonotonicDynamic):
        for cpu, block in enumerate(policy.initial_blocks(n, ncpus)):
            state[2 + 2 * cpu : 4 + 2 * cpu] = block.lo, block.hi
        return Plan((), policy.chunk, policy.steal_half), state
    if isinstance(policy, (DynamicSchedule, GuidedSchedule)):
        return Plan([(c.lo, c.hi) for c in policy.chunk_queue(n, ncpus)]), state
    raise ScheduleError(f"unsupported policy {policy!r}")


def claim(plan: Plan, state, cpu: int) -> tuple[int, int, bool] | None:
    """``cpu``'s next chunk ``(lo, hi, stolen)``, updating ``state``; the
    caller holds whatever lock guards ``state``."""
    table = plan.table
    q = state[0]
    if q < len(table):
        state[0] = q + 1
        lo, hi = table[q]
        return lo, hi, False
    w = 2 + 2 * cpu
    lo, hi = state[w], state[w + 1]
    k = plan.k
    if lo < hi:
        if not k:
            state[w] = lo + 1
            lo, hi = table[lo]
            return lo, hi, False
        state[w] = top = min(lo + k, hi)
        return lo, top, False
    if not k:
        return None
    victim, remaining = -1, 0
    for v in range(2, len(state), 2):
        r = state[v + 1] - state[v]
        if r > remaining:
            victim, remaining = v, r
    if victim < 0:
        return None
    take = max(remaining // 2, k) if plan.steal_half else k
    hi = state[victim + 1]
    state[victim + 1] = lo = hi - min(take, remaining)
    state[1] += 1
    return lo, hi, True
