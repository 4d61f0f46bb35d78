"""Tests for the OpenMP schedule policies, their parser and the chunks
the claim rule computes for each (CPUs draining it in CPU order)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.sched.claim import claim, plan
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


def _claims(policy, n: int, ncpus: int) -> list[list[tuple[int, int]]]:
    """Each CPU's chunks ``(lo, hi)``, the CPUs draining ``claim`` in CPU
    order (dynamic, guided: CPU 0 takes the whole queue)."""
    rule, state = plan(policy, n, ncpus)
    out = []
    for cpu in range(ncpus):
        mine = []
        while (got := claim(rule, state, cpu)) is not None:
            mine.append(got[:2])
        out.append(mine)
    return out


def _queue(policy, n: int, ncpus: int) -> list[tuple[int, int]]:
    """The chunks in hand-out order."""
    return [c for mine in _claims(policy, n, ncpus) for c in mine]


class TestStatic:
    def test_plain_static_contiguous_blocks(self):
        spans = _claims(StaticSchedule(), 10, 3)
        assert spans == [[(0, 4)], [(4, 7)], [(7, 10)]]

    def test_plain_static_block_sizes_differ_by_at_most_one(self):
        a = _claims(StaticSchedule(), 11, 4)
        sizes = [sum(hi - lo for lo, hi in chunks) for chunks in a]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11

    def test_static_chunked_round_robin(self):
        a = _claims(StaticSchedule(2), 10, 2)
        assert a[0] == [(0, 2), (4, 6), (8, 10)]
        assert a[1] == [(2, 4), (6, 8)]

    def test_empty_iteration_space(self):
        a = _claims(StaticSchedule(), 0, 4)
        assert all(chunks == [] for chunks in a)

    def test_more_cpus_than_iterations(self):
        a = _claims(StaticSchedule(), 2, 5)
        sizes = [sum(hi - lo for lo, hi in chunks) for chunks in a]
        assert sizes == [1, 1, 0, 0, 0]

    def test_bad_ncpus(self):
        with pytest.raises(ScheduleError):
            plan(StaticSchedule(), 4, 0)


class TestDynamic:
    def test_chunk_queue_covers_space(self):
        q = _queue(DynamicSchedule(3), 10, 2)
        assert q == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_default_chunk_is_one(self):
        q = _queue(DynamicSchedule(), 4, 2)
        assert all(hi - lo == 1 for lo, hi in q)


class TestGuided:
    def test_sizes_non_increasing(self):
        q = _queue(GuidedSchedule(1), 100, 4)
        sizes = [hi - lo for lo, hi in q]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sum(sizes) == 100

    def test_min_chunk_respected(self):
        q = _queue(GuidedSchedule(5), 100, 4)
        sizes = [hi - lo for lo, hi in q]
        # every chunk except possibly the final one honors the minimum
        assert all(s >= 5 for s in sizes[:-1])

    def test_first_chunk_is_remaining_over_2p(self):
        # LLVM-style guided: ceil(remaining / (2 * ncpus))
        q = _queue(GuidedSchedule(1), 100, 4)
        assert q[0][1] - q[0][0] == 13


class TestNonMonotonic:
    def test_initial_blocks_are_contiguous_partition(self):
        _, state = plan(NonMonotonicDynamic(1), 10, 3)
        assert list(zip(state[2::2], state[3::2])) == [(0, 4), (4, 7), (7, 10)]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=500),
    p=st.integers(min_value=1, max_value=16),
    chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
def test_static_assignment_partitions(n, p, chunk):
    """Property: static assignments cover [0, n) exactly once."""
    a = _claims(StaticSchedule(chunk), n, p)
    seen = sorted(i for chunks in a for lo, hi in chunks for i in range(lo, hi))
    assert seen == list(range(n))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=500),
    p=st.integers(min_value=1, max_value=16),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_guided_queue_partitions(n, p, chunk):
    """Property: guided chunk queues cover [0, n) exactly once, ordered."""
    q = _queue(GuidedSchedule(chunk), n, p)
    seen = [i for lo, hi in q for i in range(lo, hi)]
    assert seen == list(range(n))
