"""Tests for the OpenMP schedule policies and their parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    StaticSchedule,
    parse_schedule,
)


class TestParse:
    @pytest.mark.parametrize(
        "spec,cls,chunk",
        [
            ("static", StaticSchedule, None),
            ("static,4", StaticSchedule, 4),
            ("dynamic", DynamicSchedule, 1),
            ("dynamic,2", DynamicSchedule, 2),
            ("guided", GuidedSchedule, 1),
            ("guided,8", GuidedSchedule, 8),
            ("nonmonotonic:dynamic", NonMonotonicDynamic, 1),
            ("nonmonotonic:dynamic,2", NonMonotonicDynamic, 2),
            ("monotonic:dynamic", DynamicSchedule, 1),
            ("  DYNAMIC , 3 ", DynamicSchedule, 3),
        ],
    )
    def test_valid_specs(self, spec, cls, chunk):
        policy = parse_schedule(spec)
        assert isinstance(policy, cls)
        assert policy.chunk == chunk

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus", "dynamic,x", "dynamic,0", "weird:dynamic", "nonmonotonic:static",
         "nonmonotonic:guided", "nonmonotonic:guided,2"],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(ScheduleError):
            parse_schedule(spec)

    def test_spec_roundtrip(self):
        for s in ["static", "static,4", "dynamic", "dynamic,2", "guided",
                  "guided,2", "nonmonotonic:dynamic", "nonmonotonic:dynamic,4"]:
            assert parse_schedule(parse_schedule(s).spec()).spec() == parse_schedule(s).spec()


class TestStatic:
    def test_plain_static_contiguous_blocks(self):
        a = StaticSchedule().assignment(10, 3)
        spans = [[(c.lo, c.hi) for c in chunks] for chunks in a]
        assert spans == [[(0, 4)], [(4, 7)], [(7, 10)]]

    def test_plain_static_block_sizes_differ_by_at_most_one(self):
        a = StaticSchedule().assignment(11, 4)
        sizes = [sum(len(c) for c in chunks) for chunks in a]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11

    def test_static_chunked_round_robin(self):
        a = StaticSchedule(2).assignment(10, 2)
        assert [(c.lo, c.hi) for c in a[0]] == [(0, 2), (4, 6), (8, 10)]
        assert [(c.lo, c.hi) for c in a[1]] == [(2, 4), (6, 8)]

    def test_empty_iteration_space(self):
        a = StaticSchedule().assignment(0, 4)
        assert all(chunks == [] for chunks in a)

    def test_more_cpus_than_iterations(self):
        a = StaticSchedule().assignment(2, 5)
        sizes = [sum(len(c) for c in chunks) for chunks in a]
        assert sizes == [1, 1, 0, 0, 0]

    def test_bad_ncpus(self):
        with pytest.raises(ScheduleError):
            StaticSchedule().assignment(4, 0)


class TestDynamic:
    def test_chunk_queue_covers_space(self):
        q = DynamicSchedule(3).chunk_queue(10, 2)
        assert [(c.lo, c.hi) for c in q] == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_default_chunk_is_one(self):
        q = DynamicSchedule().chunk_queue(4, 2)
        assert all(len(c) == 1 for c in q)


class TestGuided:
    def test_sizes_non_increasing(self):
        q = GuidedSchedule(1).chunk_queue(100, 4)
        sizes = [len(c) for c in q]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sum(sizes) == 100

    def test_min_chunk_respected(self):
        q = GuidedSchedule(5).chunk_queue(100, 4)
        sizes = [len(c) for c in q]
        # every chunk except possibly the final one honors the minimum
        assert all(s >= 5 for s in sizes[:-1])

    def test_first_chunk_is_remaining_over_2p(self):
        # LLVM-style guided: ceil(remaining / (2 * ncpus))
        q = GuidedSchedule(1).chunk_queue(100, 4)
        assert len(q[0]) == 13


class TestNonMonotonic:
    def test_initial_blocks_are_contiguous_partition(self):
        blocks = NonMonotonicDynamic(1).initial_blocks(10, 3)
        assert [(b.lo, b.hi) for b in blocks] == [(0, 4), (4, 7), (7, 10)]

    def test_flags(self):
        p = NonMonotonicDynamic(2)
        assert p.uses_stealing and not p.is_static
        assert StaticSchedule().is_static
        assert not DynamicSchedule().uses_stealing


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=500),
    p=st.integers(min_value=1, max_value=16),
    chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
def test_static_assignment_partitions(n, p, chunk):
    """Property: static assignments cover [0, n) exactly once."""
    a = StaticSchedule(chunk).assignment(n, p)
    seen = sorted(i for chunks in a for c in chunks for i in c.indices())
    assert seen == list(range(n))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=500),
    p=st.integers(min_value=1, max_value=16),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_guided_queue_partitions(n, p, chunk):
    """Property: guided chunk queues cover [0, n) exactly once, ordered."""
    q = GuidedSchedule(chunk).chunk_queue(n, p)
    seen = [i for c in q for i in c.indices()]
    assert seen == list(range(n))
