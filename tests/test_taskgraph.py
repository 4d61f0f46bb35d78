"""Tests for TaskGraph: OpenMP-style dependency inference + DAG queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DependencyError
from repro.sched.taskgraph import TaskGraph


class TestExplicitEdges:
    def test_chain(self):
        g = TaskGraph()
        a = g.add_task("a")
        b = g.add_task("b", depends_on=[a])
        c = g.add_task("c", depends_on=[b])
        assert g.levels() == [1, 2, 3]
        assert g.depth() == 3

    def test_unknown_pred_rejected(self):
        g = TaskGraph()
        with pytest.raises(DependencyError):
            g.add_task("a", depends_on=[5])

    def test_self_dependency_rejected(self):
        g = TaskGraph()
        a = g.add_task("a")
        with pytest.raises(DependencyError):
            g._add_edge(a, a)


class TestOmpDependInference:
    def test_reader_depends_on_writer(self):
        g = TaskGraph()
        w = g.add_task("w", writes=["x"])
        r = g.add_task("r", reads=["x"])
        assert w in g.nodes[r].preds

    def test_writer_depends_on_readers_since(self):
        g = TaskGraph()
        w1 = g.add_task("w1", writes=["x"])
        r1 = g.add_task("r1", reads=["x"])
        r2 = g.add_task("r2", reads=["x"])
        w2 = g.add_task("w2", writes=["x"])
        assert {r1, r2, w1} <= g.nodes[w2].preds

    def test_two_readers_independent(self):
        g = TaskGraph()
        g.add_task("w", writes=["x"])
        r1 = g.add_task("r1", reads=["x"])
        r2 = g.add_task("r2", reads=["x"])
        assert r1 not in g.nodes[r2].preds
        assert r2 not in g.nodes[r1].preds

    def test_read_of_never_written_token_is_noop(self):
        # OpenMP: depend(in:) on an address no task wrote creates no edge —
        # the out-of-grid tile[i-1][j] case of paper Fig. 11
        g = TaskGraph()
        t = g.add_task("t", reads=[("off", "grid")])
        assert g.nodes[t].preds == set()

    def test_inout_chain(self):
        g = TaskGraph()
        a = g.add_task("a", reads=["x"], writes=["x"])
        b = g.add_task("b", reads=["x"], writes=["x"])
        assert a in g.nodes[b].preds

    def test_wavefront_grid(self):
        """The Fig. 11 pattern: task (i, j) reads (i-1, j) and (i, j-1)."""
        g = TaskGraph()
        n = 4
        tid = {}
        for i in range(n):
            for j in range(n):
                tid[i, j] = g.add_task(
                    (i, j),
                    reads=[(i - 1, j), (i, j - 1)],
                    writes=[(i, j)],
                )
        levels = g.levels()
        for (i, j), t in tid.items():
            assert levels[t] == i + j + 1  # anti-diagonal wavefront
        assert g.depth() == 2 * n - 1


class TestQueries:
    def test_critical_path_time(self):
        g = TaskGraph()
        a = g.add_task("a", cost=2.0)
        b = g.add_task("b", cost=3.0, depends_on=[a])
        g.add_task("c", cost=1.0, depends_on=[a])
        assert g.critical_path_time() == pytest.approx(5.0)

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.levels() == []
        assert g.depth() == 0
        assert g.critical_path_time() == 0.0


@settings(max_examples=50, deadline=None)
@given(
    preds=st.lists(st.sets(st.integers(0, 14), max_size=4), min_size=1, max_size=15),
    costs=st.lists(st.floats(0.5, 4.0), min_size=15, max_size=15),
)
def test_forward_passes_property(preds, costs):
    """Property: on random forward-only DAGs, ``levels`` and
    ``critical_path_time`` equal the longest paths found by brute-force
    path enumeration, and ``depth`` is the deepest level."""
    g = TaskGraph()
    for tid, ps in enumerate(preds):
        g.add_task(tid, costs[tid], depends_on=[p for p in ps if p < tid])

    def longest(tid, weight):
        node = g.nodes[tid]
        return weight(node) + max((longest(p, weight) for p in node.preds), default=0)

    assert g.levels() == [longest(t, lambda n: 1) for t in range(len(g))]
    assert g.depth() == max(g.levels())
    assert g.critical_path_time() == pytest.approx(
        max(longest(t, lambda n: n.cost) for t in range(len(g)))
    )
