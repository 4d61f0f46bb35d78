"""The one chunk-claim rule (``repro.sched.claim``) under any interleaving.

The simulator asks in earliest-free order, which ``tests/sched_oracle.py``
pins; real teams ask in whatever order the OS runs them.  The property
here draws that order, and the ``threads`` cells check that a real team
now steals under ``nonmonotonic:dynamic``.
"""

from __future__ import annotations

import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import ExecutionContext
from repro.core.engine import run
from repro.kernels.simple import NoneKernel
from repro.sched.claim import claim, plan
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    StaticSchedule,
)
from tests.conftest import make_config
from tests.sched_oracle import assignment, chunk_queue

chunks = st.integers(min_value=1, max_value=8)
policies = st.one_of(
    st.builds(StaticSchedule, st.none() | chunks),
    st.builds(DynamicSchedule, chunks),
    st.builds(GuidedSchedule, chunks),
    st.builds(NonMonotonicDynamic, chunks, st.booleans()),
)


def _drain(policy, n: int, ncpus: int, order) -> tuple[list[list], int]:
    """Every CPU's claims, CPUs asking in ``order``'s random sequence
    until each has been refused; also the final steal word."""
    rule, state = plan(policy, n, ncpus)
    claims: list[list] = [[] for _ in range(ncpus)]
    active = list(range(ncpus))
    while active:
        cpu = order.choice(active)
        got = claim(rule, state, cpu)
        if got is None:
            active.remove(cpu)
        else:
            claims[cpu].append(got)
    return claims, state[1]


@settings(max_examples=150, deadline=None)
@given(
    policy=policies,
    n=st.integers(min_value=0, max_value=300),
    ncpus=st.integers(min_value=1, max_value=8),
    order=st.randoms(use_true_random=False),
)
def test_any_interleaving_partitions_the_loop(policy, n, ncpus, order):
    claims, steals = _drain(policy, n, ncpus, order)
    flat = [c for per_cpu in claims for c in per_cpu]
    assert all(lo < hi for lo, hi, _ in flat)
    assert sorted(i for lo, hi, _ in flat for i in range(lo, hi)) == list(range(n))
    assert steals == sum(stolen for _, _, stolen in flat)
    if isinstance(policy, StaticSchedule):
        assert steals == 0
        for cpu, chunks_ in enumerate(assignment(policy, n, ncpus)):
            assert claims[cpu] == [(lo, hi, False) for lo, hi in chunks_]
    elif not isinstance(policy, NonMonotonicDynamic):
        assert steals == 0
        assert sorted(flat) == [(lo, hi, False) for lo, hi in chunk_queue(policy, n, ncpus)]


def _slow_first_block(seen: list[int]):
    """A body over item indices whose first 16 items sleep and the rest
    return at once: with 2 threads, rank 1's block runs out long before
    rank 0's."""
    lock = threading.Lock()

    def body(i: int) -> float:
        with lock:
            seen.append(i)
        if i < 16:
            time.sleep(0.005)
        return 1.0

    return body


def test_threads_nonmonotonic_region_steals():
    ctx = ExecutionContext(make_config(backend="threads", nthreads=2))
    seen: list[int] = []
    res = ctx.parallel_for(_slow_first_block(seen), list(range(32)),
                           schedule="nonmonotonic:dynamic")
    assert sorted(seen) == list(range(32))
    assert res.steals > 0
    assert ctx.bus.counters["steals"] == res.steals
    assert any(e.cpu == 1 and e.meta["index"] < 16 for e in res.timeline)


def test_threads_run_counts_steals(monkeypatch):
    seen: list[int] = []
    body = _slow_first_block(seen)
    monkeypatch.setattr(NoneKernel, "do_tile", lambda self, ctx, tile: body(tile.index))
    res = run(make_config(
        kernel="none", variant="omp_tiled", backend="threads", nthreads=2,
        schedule="nonmonotonic:dynamic", dim=32, tile_w=8, tile_h=4, iterations=1,
    ))
    assert sorted(seen) == list(range(32))
    assert res.counters["steals"] > 0
