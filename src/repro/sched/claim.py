"""The one chunk-claim rule of every backend.

A worksharing loop hands out chunks through :func:`claim`, whoever runs
it: the simulator's virtual CPUs (:mod:`repro.sched.simulator`), the
``threads`` team under a ``threading.Lock`` and the ``procs`` workers
under the pool lock (:mod:`repro.omp.procs`).  The rule works over one
flat int *state*, the layout of the procs pool's shared ``ctrl`` array::

    [queue cursor, steal count, head0, tail0, head1, tail1, ...]

and a :class:`Plan` of a few ints; every chunk's bounds are arithmetic
on the two.  :func:`plan` builds both for a policy:

* **dynamic, guided** start the cursor at iteration 0 and leave the CPU
  ranges empty: every CPU takes the ``k`` iterations under the cursor —
  guided ``max(ceil((n - cursor) / (2 * ncpus)), k)`` — clipped to ``n``;
* **static, nonmonotonic:dynamic** park the cursor at ``n`` and give
  each CPU a ``[head, tail)`` range of iterations: plain ``static`` and
  the stealing family the ``divmod`` block, ``static,k`` the range from
  ``cpu * k`` to ``n``, stepping by ``ncpus * k``.

A CPU takes, in order: ``k`` iterations under the cursor; ``k``
iterations from the front of its own range (plain ``static``: all of
it); else — stealing family only — ``k`` iterations (``steal_half``:
``max(remaining // 2, k)``) from the *back* of the block of the victim
with the most remaining iterations, lowest index on ties, and the steal
count goes up by one.  ``None`` means nothing is left for that CPU.
"""

from __future__ import annotations

from typing import NamedTuple

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

    #: the loop's iteration count: where the cursor stops
    n: int
    #: iterations per claim (guided: the least chunk)
    k: int
    #: ``static,k``: distance between one CPU's chunks; 0 when a CPU's
    #: range is contiguous
    stride: int = 0
    #: guided: ``2 * ncpus``, the divisor of the remaining iterations
    guided: int = 0
    #: the stealing family: an idle CPU robs the most-loaded block
    steal: bool = False
    steal_half: bool = False


def state_words(ncpus: int) -> int:
    """Length of the state of an ``ncpus`` team."""
    return 2 + 2 * ncpus


def _blocks(state: list[int], n: int, ncpus: int) -> None:
    """Give each CPU its ``divmod`` block: the first ``n % ncpus`` get
    one iteration more (LLVM/GCC static)."""
    base, extra = divmod(n, ncpus)
    lo = 0
    for cpu in range(ncpus):
        hi = lo + base + (cpu < extra)
        state[2 + 2 * cpu : 4 + 2 * cpu] = lo, hi
        lo = hi


def plan(policy: SchedulePolicy, n: int, ncpus: int) -> tuple[Plan, list[int]]:
    """The plan and initial state of ``policy`` over ``n`` iterations."""
    if ncpus < 1:
        raise ScheduleError(f"need at least one cpu, got {ncpus}")
    state = [0] * state_words(ncpus)
    if isinstance(policy, (DynamicSchedule, GuidedSchedule)):
        guided = 2 * ncpus if isinstance(policy, GuidedSchedule) else 0
        return Plan(n, policy.chunk, guided=guided), state
    state[0] = n
    if isinstance(policy, StaticSchedule):
        k = policy.chunk
        if k is None:
            _blocks(state, n, ncpus)
            return Plan(n, n), state  # k = n: one claim takes the block
        for cpu in range(ncpus):
            state[2 + 2 * cpu : 4 + 2 * cpu] = cpu * k, n
        return Plan(n, k, stride=ncpus * k), state
    if isinstance(policy, NonMonotonicDynamic):
        _blocks(state, n, ncpus)
        return Plan(n, policy.chunk, steal=True, steal_half=policy.steal_half), state
    raise ScheduleError(f"unsupported policy {policy!r}")


def claim(plan: Plan, state, cpu: int) -> tuple[int, int, bool] | None:
    """``cpu``'s next chunk ``(lo, hi, stolen)``, updating ``state``; the
    caller holds whatever lock guards ``state``."""
    lo, n, k = state[0], plan.n, plan.k
    if lo < n:
        if plan.guided:
            k = max(-(-(n - lo) // plan.guided), k)
        state[0] = hi = min(lo + k, n)
        return lo, hi, False
    w = 2 + 2 * cpu
    lo, hi = state[w], state[w + 1]
    if lo < hi:
        top = min(lo + k, hi)
        state[w] = lo + plan.stride if plan.stride else top
        return lo, top, False
    if not plan.steal:
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
