"""Tests for the trace data model."""

import json
from dataclasses import fields

from repro.trace.events import Trace, TraceEvent, TraceMeta


def ev(it=1, cpu=0, start=0.0, end=1.0, **kw):
    return TraceEvent(iteration=it, cpu=cpu, start=start, end=end, **kw)


class TestTraceEvent:
    def test_duration(self):
        assert ev(start=1.0, end=3.5).duration == 2.5

    def test_has_tile(self):
        assert not ev().has_tile
        assert ev(x=0, y=0, w=4, h=4).has_tile

    def test_dict_roundtrip(self):
        e = ev(x=3, y=4, w=5, h=6, kind="task", extra={"stolen": True})
        assert TraceEvent.from_dict(e.to_dict()) == e

    def test_to_dict_drops_empty_extra(self):
        # reads and writes too: an event without them is its nine fields
        assert list(ev().to_dict()) == ["iteration", "cpu", "start", "end",
                                        "x", "y", "w", "h", "kind"]

    def test_from_dict_defaults(self):
        e = TraceEvent.from_dict({"iteration": 1, "cpu": 0, "start": 0, "end": 1})
        assert e.x == -1 and e.kind == "tile" and e.extra == {}


class TestToDictContract:
    """``to_dict`` is what the ``.evt`` writer encodes, so its key order,
    omissions and value shapes are the file's bytes."""

    FULL = dict(
        it=2, cpu=1, start=0.5, end=1.25, x=8, y=0, w=8, h=8, kind="task",
        extra={"preds": [3, 4], "cache": {"hits": 5, "misses": 1},
               "span": (0.5, 1.0)},
        reads=(("cur", 7, 0, 10, 9),),
        writes=(("next3", 0, 0, 16, 16, 8, 8),),
    )

    def test_key_order_is_field_order(self):
        d = ev(**self.FULL).to_dict()
        assert list(d) == [f.name for f in fields(TraceEvent)]

    def test_mutating_result_leaves_event_unchanged(self):
        e = ev(extra={"index": 3})
        d = e.to_dict()
        d["extra"]["index"] = 99
        d["extra"]["stolen"] = True
        assert e.extra == {"index": 3}

    def test_nested_extra_encoding_pinned(self):
        # nested values encode as JSON lists and objects; tuples become
        # lists, exactly as in .evt files already written
        expected = (
            '{"iteration": 2, "cpu": 1, "start": 0.5, "end": 1.25, '
            '"x": 8, "y": 0, "w": 8, "h": 8, "kind": "task", '
            '"extra": {"preds": [3, 4], "cache": {"hits": 5, "misses": 1}, '
            '"span": [0.5, 1.0]}, "reads": [["cur", 7, 0, 10, 9]], '
            '"writes": [["next3", 0, 0, 16, 16, 8, 8]]}'
        )
        assert json.dumps(ev(**self.FULL).to_dict()) == expected


class TestTraceMeta:
    def test_roundtrip(self):
        m = TraceMeta(kernel="mandel", variant="omp", dim=64, ncpus=4,
                      schedule="dynamic")
        again = TraceMeta.from_dict(m.to_dict())
        assert again == m

    def test_ignores_unknown_keys(self):
        m = TraceMeta.from_dict({"kernel": "x", "future_field": 1})
        assert m.kernel == "x"


class TestTrace:
    def _trace(self):
        return Trace(
            TraceMeta(ncpus=2),
            [
                ev(it=1, cpu=0, start=0, end=1),
                ev(it=1, cpu=1, start=0, end=2),
                ev(it=2, cpu=0, start=2, end=3),
                ev(it=3, cpu=1, start=3, end=4),
            ],
        )

    def test_len_iter(self):
        t = self._trace()
        assert len(t) == 4
        assert len(list(t)) == 4

    def test_iterations_sorted_unique(self):
        assert self._trace().iterations == [1, 2, 3]

    def test_duration(self):
        assert self._trace().duration == 4.0

    def test_iteration_events(self):
        assert len(self._trace().iteration_events(1)) == 2
        assert self._trace().iteration_events(9) == []

    def test_iteration_range(self):
        assert len(self._trace().iteration_range(1, 2)) == 3

    def test_cpu_events_sorted(self):
        t = Trace(TraceMeta(ncpus=1), [ev(start=5, end=6), ev(start=0, end=1)])
        starts = [e.start for e in t.cpu_events(0)]
        assert starts == [0, 5]

    def test_ncpus_from_meta_or_events(self):
        assert self._trace().ncpus == 2
        t = Trace(TraceMeta(), [ev(cpu=5)])
        assert t.ncpus == 6

    def test_sorted_copy(self):
        t = Trace(TraceMeta(), [ev(start=5, end=6), ev(start=0, end=1)])
        s = t.sorted()
        assert [e.start for e in s] == [0, 5]
        assert [e.start for e in t] == [5, 0]  # original untouched
