"""Tests for DAG list scheduling (the omp-task runtime model)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sched.costmodel import CostModel
from repro.sched.dag_sim import simulate_dag
from repro.sched.taskgraph import TaskGraph

ZERO = CostModel(1.0, 0.0, 0.0, 0.0)


def wavefront_graph(n: int, cost: float = 1.0) -> tuple[TaskGraph, dict]:
    g = TaskGraph()
    tid = {}
    for i in range(n):
        for j in range(n):
            tid[i, j] = g.add_task(
                (i, j), cost=cost, reads=[(i - 1, j), (i, j - 1)], writes=[(i, j)]
            )
    return g, tid


class TestBasics:
    def test_empty_graph(self):
        tl = simulate_dag(TaskGraph(), 4, model=ZERO)
        assert len(tl) == 0

    def test_chain_is_sequential(self):
        g = TaskGraph()
        a = g.add_task("a", cost=1.0)
        b = g.add_task("b", cost=2.0, depends_on=[a])
        c = g.add_task("c", cost=3.0, depends_on=[b])
        tl = simulate_dag(g, 4, model=ZERO)
        assert tl.makespan == pytest.approx(6.0)

    def test_independent_tasks_run_in_parallel(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, cost=1.0)
        tl = simulate_dag(g, 4, model=ZERO)
        assert tl.makespan == pytest.approx(1.0)

    def test_bad_ncpus(self):
        with pytest.raises(SimulationError):
            simulate_dag(TaskGraph(), 0)

    def test_meta_merged(self):
        g = TaskGraph()
        g.add_task("a", cost=1.0, meta={"phase": "dr"})
        tl = simulate_dag(g, 1, model=ZERO, meta={"iteration": 3})
        (e,) = tl
        assert e.meta["iteration"] == 3 and e.meta["phase"] == "dr"


class TestDependencyRespect:
    def test_preds_finish_first(self):
        g, tid = wavefront_graph(4)
        tl = simulate_dag(g, 3, model=ZERO)
        end = {e.meta["tid"]: e.end for e in tl}
        start = {e.meta["tid"]: e.start for e in tl}
        for node in g.nodes:
            for p in node.preds:
                assert end[p] <= start[node.tid] + 1e-9

    def test_wavefront_makespan(self):
        # n x n unit-cost wavefront on enough cpus: critical path = 2n-1
        g, _ = wavefront_graph(5)
        tl = simulate_dag(g, 16, model=ZERO)
        assert tl.makespan == pytest.approx(9.0)

    def test_single_cpu_is_total_work(self):
        g, _ = wavefront_graph(3)
        tl = simulate_dag(g, 1, model=ZERO)
        assert tl.makespan == pytest.approx(9.0)

    def test_overconstrained_graph_serializes(self):
        """The classic student bug (paper §III-C): depending on the
        previous task in submission order makes execution sequential —
        visible as makespan == total work even with many CPUs."""
        g = TaskGraph()
        prev = None
        for i in range(9):
            prev = g.add_task(i, cost=1.0, depends_on=[] if prev is None else [prev])
        tl = simulate_dag(g, 8, model=ZERO)
        assert tl.makespan == pytest.approx(9.0)

    def test_wave_order_visible_in_timeline(self):
        g, tid = wavefront_graph(4)
        tl = simulate_dag(g, 4, model=ZERO)
        start = {e.meta["tid"]: e.start for e in tl}
        # tasks on a later anti-diagonal never start before all tasks of
        # the 2-earlier diagonal have started (the Fig. 12 wave)
        for (i, j), t in tid.items():
            for (k, l), u in tid.items():
                if k + l >= i + j + 2:
                    assert start[u] >= start[t] - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    ncpus=st.integers(min_value=1, max_value=8),
    costs_seed=st.integers(min_value=0, max_value=1000),
)
def test_dag_sim_invariants(n, ncpus, costs_seed):
    """Property: validity + dependency respect + greedy bound on wavefronts."""
    import random

    rnd = random.Random(costs_seed)
    g = TaskGraph()
    for i in range(n):
        for j in range(n):
            g.add_task((i, j), cost=rnd.uniform(0.1, 2.0),
                       reads=[(i - 1, j), (i, j - 1)], writes=[(i, j)])
    tl = simulate_dag(g, ncpus, model=ZERO)
    tl.validate()
    assert len(tl) == n * n
    end = {e.meta["tid"]: e.end for e in tl}
    start = {e.meta["tid"]: e.start for e in tl}
    for node in g.nodes:
        for p in node.preds:
            assert end[p] <= start[node.tid] + 1e-9
    total = sum(node.cost for node in g.nodes)
    cp = g.critical_path_time()
    # Graham bound for greedy list scheduling
    assert tl.makespan <= total / ncpus + cp + 1e-9
    assert tl.makespan >= max(cp, total / ncpus) - 1e-9
