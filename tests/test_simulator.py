"""Tests for the loop-scheduling simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sched.costmodel import CostModel
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    StaticSchedule,
)
from repro.sched.simulator import simulate, simulate_makespan
from tests.sched_oracle import oracle_simulate

ZERO = CostModel(seconds_per_unit=1.0, dispatch_overhead=0.0,
                 steal_overhead=0.0, fork_join_overhead=0.0)

ALL_POLICIES = [
    StaticSchedule(),
    StaticSchedule(2),
    DynamicSchedule(1),
    DynamicSchedule(3),
    GuidedSchedule(1),
    GuidedSchedule(2),
    NonMonotonicDynamic(1),
    NonMonotonicDynamic(2),
    NonMonotonicDynamic(1, steal_half=True),
    NonMonotonicDynamic(3, steal_half=True),
]


class TestBasics:
    def test_single_cpu_is_sequential(self):
        res = simulate([1.0, 2.0, 3.0], DynamicSchedule(1), 1, model=ZERO)
        assert res.makespan == pytest.approx(6.0)
        assert all(e.cpu == 0 for e in res.timeline)

    def test_uniform_costs_perfect_balance(self):
        res = simulate([1.0] * 8, StaticSchedule(), 4, model=ZERO)
        assert res.makespan == pytest.approx(2.0)
        assert res.timeline.busy_per_cpu() == pytest.approx([2.0] * 4)

    def test_items_attached(self):
        items = ["a", "b", "c"]
        res = simulate([1, 1, 1], DynamicSchedule(1), 2, items=items, model=ZERO)
        assert {e.item for e in res.timeline} == set(items)

    def test_item_count_mismatch(self):
        with pytest.raises(SimulationError):
            simulate([1, 2], DynamicSchedule(1), 2, items=["x"], model=ZERO)

    def test_zero_cpus_rejected(self):
        with pytest.raises(SimulationError):
            simulate([1.0], DynamicSchedule(1), 0, model=ZERO)

    def test_meta_propagated(self):
        res = simulate([1.0], StaticSchedule(), 1, model=ZERO, meta={"iteration": 7})
        assert next(iter(res.timeline)).meta["iteration"] == 7

    def test_start_time_offsets_everything(self):
        res = simulate([1.0, 1.0], DynamicSchedule(1), 2, model=ZERO, start_time=5.0)
        assert all(e.start >= 5.0 for e in res.timeline)


class TestStaticBehaviour:
    def test_imbalanced_costs_hurt_static(self):
        # one heavy item at the front: static gives it to cpu 0 along with
        # the rest of its block
        costs = [10.0] + [1.0] * 7
        stat = simulate(costs, StaticSchedule(), 4, model=ZERO)
        dyn = simulate(costs, DynamicSchedule(1), 4, model=ZERO)
        assert stat.makespan > dyn.makespan

    def test_static_assignment_is_contiguous(self):
        res = simulate([1.0] * 12, StaticSchedule(), 3, model=ZERO)
        for cpu in range(3):
            idx = [e.meta["index"] for e in res.timeline if e.cpu == cpu]
            assert idx == list(range(min(idx), max(idx) + 1))


class TestDynamicBehaviour:
    def test_greedy_no_idle_while_work_remains(self):
        # 2 cpus, 4 unit tasks: both busy until the end
        res = simulate([1.0] * 4, DynamicSchedule(1), 2, model=ZERO)
        assert res.makespan == pytest.approx(2.0)

    def test_chunked_dispatch(self):
        res = simulate([1.0] * 6, DynamicSchedule(2), 2, model=ZERO)
        assert len(res.grabs) == 3
        assert all(g.size == 2 for g in res.grabs)

    def test_dispatch_overhead_counted(self):
        model = CostModel(1.0, dispatch_overhead=0.5, steal_overhead=0.0,
                          fork_join_overhead=0.0)
        res = simulate([1.0] * 4, DynamicSchedule(1), 1, model=model)
        # 4 chunks x (0.5 + 1.0)
        assert res.makespan == pytest.approx(6.0)

    def test_smaller_chunks_cost_more_overhead(self):
        model = CostModel(1.0, dispatch_overhead=0.2, steal_overhead=0.0,
                          fork_join_overhead=0.0)
        fine = simulate([1.0] * 32, DynamicSchedule(1), 2, model=model)
        coarse = simulate([1.0] * 32, DynamicSchedule(8), 2, model=model)
        assert fine.makespan > coarse.makespan


class TestGuidedBehaviour:
    def test_chunk_sizes_decrease(self):
        res = simulate([1.0] * 64, GuidedSchedule(1), 4, model=ZERO)
        sizes = res.chunk_sizes()
        assert sizes[0] == 8  # LLVM-style: ceil(remaining / (2 * ncpus))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestNonMonotonicBehaviour:
    def test_no_steals_when_balanced(self):
        res = simulate([1.0] * 8, NonMonotonicDynamic(1), 4, model=ZERO)
        assert res.steals == 0

    def test_steals_correct_imbalance(self):
        # cpu 0's block is heavy; others should steal from it
        costs = [5.0] * 4 + [0.1] * 12
        res = simulate(costs, NonMonotonicDynamic(1), 4, model=ZERO)
        assert res.steals > 0
        ideal = sum(costs) / 4
        assert res.makespan <= 2.5 * ideal

    def test_stolen_marked_in_meta(self):
        costs = [5.0] * 4 + [0.1] * 12
        res = simulate(costs, NonMonotonicDynamic(1), 4, model=ZERO)
        stolen = [e for e in res.timeline if e.meta.get("stolen")]
        assert stolen
        # stolen tasks come from the back of some victim's block
        assert all(e.meta["index"] not in range(0, 4) or e.cpu != 0 for e in stolen)

    def test_steal_half_mode(self):
        costs = [5.0] * 4 + [0.1] * 12
        half = simulate(costs, NonMonotonicDynamic(1, steal_half=True), 4, model=ZERO)
        one = simulate(costs, NonMonotonicDynamic(1), 4, model=ZERO)
        assert half.steals <= one.steals


@settings(max_examples=60, deadline=None)
@given(
    costs=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=60),
    ncpus=st.integers(min_value=1, max_value=8),
    policy_i=st.integers(min_value=0, max_value=len(ALL_POLICIES) - 1),
)
def test_every_policy_schedules_each_item_exactly_once(costs, ncpus, policy_i):
    """Property: completeness + timeline validity for every policy."""
    res = simulate(costs, ALL_POLICIES[policy_i], ncpus, model=ZERO)
    res.timeline.validate()
    indices = sorted(e.meta["index"] for e in res.timeline)
    assert indices == list(range(len(costs)))


@settings(max_examples=40, deadline=None)
@given(
    costs=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=60),
    ncpus=st.integers(min_value=1, max_value=8),
    policy_i=st.integers(min_value=0, max_value=len(ALL_POLICIES) - 1),
)
def test_makespan_bounds(costs, ncpus, policy_i):
    """Property: total_work/p <= makespan <= total_work (no overheads)."""
    res = simulate(costs, ALL_POLICIES[policy_i], ncpus, model=ZERO)
    total = sum(costs)
    assert res.makespan <= total + 1e-9
    assert res.makespan >= total / ncpus - 1e-9
    assert res.makespan >= max(costs) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    costs=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=40),
    ncpus=st.integers(min_value=1, max_value=6),
)
def test_dynamic_is_greedy(costs, ncpus):
    """Property: under dynamic,1 with no overhead, a CPU is never idle
    while unstarted work exists (list-scheduling 2-approximation bound)."""
    res = simulate(costs, DynamicSchedule(1), ncpus, model=ZERO)
    opt_lb = max(sum(costs) / ncpus, max(costs))
    assert res.makespan <= 2.0 * opt_lb + 1e-9


# ---------------------------------------------------------------------------
# simulate / simulate_makespan vs the reference heapq event loop
# ---------------------------------------------------------------------------

OVERHEAD_MODELS = [
    ZERO,
    CostModel(seconds_per_unit=1.0, dispatch_overhead=0.25,
              steal_overhead=0.5, fork_join_overhead=0.0),
    CostModel(seconds_per_unit=5e-9, dispatch_overhead=2.5e-7,
              steal_overhead=1.5e-6, fork_join_overhead=5e-6),  # default scale
]


def assert_matches_oracle(costs, policy, ncpus, *, model=ZERO, start_time=0.0):
    """The whole result equals the oracle's EXACTLY (``==``, not approx):
    grabs, timeline order, every task's item/cpu/start/end/meta, steals
    and makespan — and so does the timeline-free makespan.  Perf mode
    and traced runs must not drift by a single ulp, or bit-identical
    virtual clocks across the engine paths become impossible."""
    items = [f"t{i}" for i in range(len(costs))]
    kw = dict(model=model, start_time=start_time)
    got = simulate(costs, policy, ncpus, items=items, meta={"iteration": 3}, **kw)
    ref = oracle_simulate(costs, policy, ncpus, items=items, meta={"iteration": 3}, **kw)
    assert got.grabs == ref.grabs
    assert got.steals == ref.steals
    assert got.timeline.ncpus == ref.timeline.ncpus
    assert [(e.item, e.cpu, e.start, e.end, e.meta) for e in got.timeline] == \
        [(e.item, e.cpu, e.start, e.end, e.meta) for e in ref.timeline]
    assert got.makespan == ref.makespan
    assert simulate_makespan(costs, policy, ncpus, **kw) == ref.makespan


@settings(max_examples=120, deadline=None)
@given(
    costs=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=60
    ),
    ncpus=st.integers(min_value=1, max_value=8),
    policy_i=st.integers(min_value=0, max_value=len(ALL_POLICIES) - 1),
    model_i=st.integers(min_value=0, max_value=len(OVERHEAD_MODELS) - 1),
    start_time=st.sampled_from([0.0, 1.5, 123.456, 7e3]),
)
def test_closed_form_equals_event_loop_exactly(costs, ncpus, policy_i, model_i,
                                               start_time):
    """Property: every policy, overhead model and start time reproduces
    the reference event loop exactly."""
    assert_matches_oracle(costs, ALL_POLICIES[policy_i], ncpus,
                          model=OVERHEAD_MODELS[model_i], start_time=start_time)


@settings(max_examples=40, deadline=None)
@given(
    costs=st.lists(
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
        min_size=1, max_size=80,
    ),
    ncpus=st.integers(min_value=1, max_value=8),
    policy_i=st.integers(min_value=0, max_value=len(ALL_POLICIES) - 1),
)
def test_closed_form_exact_across_magnitudes(costs, ncpus, policy_i):
    """Property: exactness survives mixed cost magnitudes (catastrophic
    ranges for naive summation reorderings) and chunks long enough for
    the ``np.add.accumulate`` fold."""
    assert_matches_oracle(costs, ALL_POLICIES[policy_i], ncpus)
    assert_matches_oracle(costs, StaticSchedule(), 1)


def test_long_chunks_fold_exactly():
    """Chunks past the ``np.add.accumulate`` cutoff, over costs whose sum
    any reassociation (pairwise summation, say) would change."""
    costs = (10.0 ** np.random.default_rng(7).uniform(-9, 6, size=500)).tolist()
    for policy in (StaticSchedule(), StaticSchedule(100), DynamicSchedule(64),
                   GuidedSchedule(1), NonMonotonicDynamic(40, steal_half=True)):
        for ncpus in (1, 3):
            assert_matches_oracle(costs, policy, ncpus, model=OVERHEAD_MODELS[1],
                                  start_time=1.5)


def test_closed_form_empty_costs():
    assert simulate_makespan([], StaticSchedule(), 4, model=ZERO) == 0.0
    for policy in ALL_POLICIES:
        assert_matches_oracle([], policy, 3, start_time=2.0)


class TestStealingClosedForm:
    """Work stealing against the oracle, with real overheads."""

    def test_direct_equality_with_overheads(self):
        model = CostModel(seconds_per_unit=1.0, dispatch_overhead=0.25,
                          steal_overhead=0.5, fork_join_overhead=0.0)
        costs = [5.0] * 4 + [0.1] * 29 + [2.0] * 8
        for policy in (NonMonotonicDynamic(1), NonMonotonicDynamic(2),
                       NonMonotonicDynamic(1, steal_half=True)):
            for ncpus in (1, 2, 3, 7):
                assert_matches_oracle(costs, policy, ncpus, model=model,
                                      start_time=3.25)


def test_closed_form_rejects_zero_cpus():
    with pytest.raises(SimulationError):
        simulate_makespan([1.0], StaticSchedule(), 0, model=ZERO)
