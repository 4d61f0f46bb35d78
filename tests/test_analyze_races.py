"""Tests for the happens-before data-race detector."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import check_races, lint_variant
from repro.analyze.__main__ import MPI_VARIANTS
from repro.analyze.footprint import has_footprints, tasks_by_region
from repro.analyze.hb import concurrency_of
from repro.core.engine import run
from repro.core.kernel import get_kernel, list_kernels, load_kernel_module
from repro.trace.events import Trace, TraceEvent
from tests.conftest import make_config
from tests.hb_oracle import VectorClock, oracle_check_races, oracle_concurrency_of

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    return load_kernel_module(str(EXAMPLES / name))


def builtin_cases():
    # the seeded-buggy example kernels register under *_buggy names when
    # another test loads them; they must not enter the clean sweep
    for k in list_kernels():
        if k.endswith("_buggy"):
            continue
        for v in get_kernel(k).variant_names():
            yield k, v


class TestVectorClock:
    def test_tick_orders_successor(self):
        a = VectorClock().tick(0)
        b = a.tick(1)
        assert a <= b
        assert not (b <= a)
        assert not a.concurrent(b)

    def test_independent_clocks_concurrent(self):
        a = VectorClock().tick(0)
        b = VectorClock().tick(1)
        assert a.concurrent(b)

    def test_join_creates_order(self):
        a = VectorClock().tick(0)
        b = VectorClock().tick(1)
        c = a.join(b).tick(2)
        assert a <= c and b <= c

    def test_empty_clock_precedes_all(self):
        assert VectorClock() <= VectorClock().tick(3)


_rects = st.tuples(
    st.sampled_from(["a", "b"]),
    st.integers(0, 64), st.integers(0, 64), st.integers(1, 40), st.integers(1, 40),
)
_regions = st.one_of(
    _rects, st.tuples(_rects, st.integers(0, 3), st.integers(1, 3)).map(lambda r: r[0] + r[1:])
)


@st.composite
def dag_traces(draw):
    """A footprinted ``dag`` region: a random forward-only DAG of up to
    40 tasks, some of them dropped from the trace (so absent
    predecessors occur), each with random read/write regions."""
    n = draw(st.integers(0, 40))
    events = []
    for tid in range(n):
        preds = sorted(draw(st.sets(st.integers(0, tid - 1), max_size=4))) if tid else []
        if draw(st.integers(0, 3)) == 0:
            continue  # dropped: its successors still name it
        extra = {
            "region": 0, "rmode": "dag", "tid": tid, "preds": preds,
            "depend_in": [f"t{p}" for p in preds], "depend_out": [f"t{tid}"],
        }
        events.append(TraceEvent(
            iteration=1, cpu=0, start=float(tid), end=tid + 1.0, x=0, y=0, w=8, h=8,
            kind="task", extra=extra,
            reads=tuple(draw(st.lists(_regions, max_size=2))),
            writes=tuple(draw(st.lists(_regions, max_size=2))),
        ))
    return Trace(events=draw(st.permutations(events)))


@settings(max_examples=200, deadline=None)
@given(trace=dag_traces())
def test_bitsets_match_vector_clocks(trace):
    """Ancestor bitsets order a DAG region exactly as vector clocks do,
    absent predecessors and unknown task ids included, and the race
    reports built on them are the same, in the same order."""
    for region in tasks_by_region(trace):
        tids = [t.tid for t in region.tasks] + [99]
        got, want = concurrency_of(region), oracle_concurrency_of(region)
        for a in tids:
            for b in tids:
                assert got(a, b) == want(a, b), (a, b)
    assert check_races(trace) == oracle_check_races(trace)


@pytest.mark.parametrize("kernel,variant", sorted(builtin_cases()))
def test_builtin_variant_is_race_free(kernel, variant):
    """The acceptance bar: zero races (and zero lint errors) on every
    built-in variant."""
    result = lint_variant(kernel, variant, mpi_np=MPI_VARIANTS.get(variant, 0))
    assert result.errors == [], result.describe()


class TestFootprintRecording:
    def test_worksharing_tasks_carry_footprints(self):
        r = run(make_config(kernel="blur", variant="omp_tiled", trace=True,
                            footprints=True))
        assert has_footprints(r.trace)
        regions = tasks_by_region(r.trace)
        assert regions and all(rt.rmode == "par" for rt in regions)
        node = regions[0].tasks[0]
        assert any(reg[0] == "cur" for reg in node.reads)
        assert any(reg[0] == "next" for reg in node.writes)

    def test_footprints_off_by_default(self):
        r = run(make_config(kernel="blur", variant="omp_tiled", trace=True))
        assert not has_footprints(r.trace)

    def test_dag_tasks_carry_preds_and_tokens(self):
        r = run(make_config(kernel="cc", variant="omp_task", trace=True,
                            footprints=True, iterations=1))
        dag = [rt for rt in tasks_by_region(r.trace) if rt.rmode == "dag"]
        assert dag
        tasks = dag[0].tasks
        assert any(t.preds for t in tasks)
        assert all(t.depend_out for t in tasks)

    def test_scalar_accessors_recorded(self):
        # spin's do_tile writes through cur_view: footprints must appear
        # without the kernel calling declare_access for the image
        r = run(make_config(kernel="spin", variant="omp_tiled", trace=True,
                            footprints=True, iterations=1))
        regions = tasks_by_region(r.trace)
        assert any(
            reg[0] == "cur" for rt in regions for t in rt.tasks for reg in t.writes
        )


class TestBuggyLifeDependClause:
    def test_race_reported_with_missing_edge(self):
        load_example("buggy_life_taskdeps.py")
        result = lint_variant("life_buggy", "omp_task")
        races = [f for f in result.findings if f.check == "race"]
        assert races, "the seeded depend-clause bug must be detected"
        text = "\n".join(f.message for f in races)
        # actionable: names the two tasks, their tiles, and the edge
        assert "task #" in text and "tile x=" in text
        assert "read-write race on buffer 'cells'" in text
        assert "missing ordering edge" in text
        assert "depend(out:" in text and "add the in-dependence" in text

    def test_vertical_neighbours_conflict(self):
        load_example("buggy_life_taskdeps.py")
        result = lint_variant("life_buggy", "omp_task", dim=64, tile=16)
        rr = result.race_results[0]
        pairs = {(r.a.event.y, r.b.event.y) for r in rr.races}
        # at least one conflict between vertically adjacent tile rows
        assert any(abs(ya - yb) == 16 for ya, yb in pairs)


class TestBuggyBlurWritesCur:
    def test_race_and_double_buffer_findings(self):
        load_example("buggy_blur_writes_cur.py")
        result = lint_variant("blur_buggy", "omp_tiled")
        races = [f for f in result.findings if f.check == "race"]
        assert races
        text = "\n".join(f.message for f in races)
        assert "read-write race on buffer 'cur'" in text
        assert "task #" in text and "tile x=" in text
        dbuf = [f for f in result.findings if f.check == "double-buffer"]
        assert len(dbuf) == 1
        assert "write into the paired buffer" in dbuf[0].message

    def test_fixed_variant_is_clean(self):
        # the built-in blur/omp_tiled is the corrected version of the bug
        assert lint_variant("blur", "omp_tiled").clean


class TestCheckRacesResult:
    def test_clean_result_describes_scope(self):
        r = run(make_config(kernel="mandel", variant="omp_tiled", trace=True,
                            footprints=True))
        rr = check_races(r.trace)
        assert rr.clean
        assert "no data races" in rr.describe()
        assert rr.tasks_checked > 0

    def test_reports_capped(self):
        load_example("buggy_blur_writes_cur.py")
        result = lint_variant("blur_buggy", "omp_tiled", dim=128, tile=16)
        rr = result.race_results[0]
        assert rr.truncated
        assert len(rr.races) == 20
        assert "truncated" in rr.describe()
