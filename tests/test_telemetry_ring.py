"""The shared-memory telemetry ring: bounded, drop-oldest, non-blocking.

Unit tests drive :class:`RingWriter`/:func:`drain_lane` on plain numpy
arrays; the end-to-end tests shrink the per-worker capacity through
``REPRO_TELEMETRY_RING_CAP`` and prove the ISSUE-5 backpressure
contract on a real procs run: overflow drops the *oldest* records, the
``dropped_events`` counter surfaces in ``RunResult`` and the trace
meta, and a full ring never blocks or deadlocks a worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import run
from repro.errors import ConfigError
from repro.omp import procs as procs_mod
from repro.telemetry.ring import (
    KIND_EXEC,
    RECORD_WIDTH,
    RING_CAP_ENV,
    RingWriter,
    drain_lane,
    ring_capacity,
)
from tests.conftest import make_config

NW = 2


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_at_end():
    yield
    procs_mod.shutdown_pools()


def make_ring(nworkers: int = 1, cap: int = 4):
    header = np.zeros(nworkers, dtype=np.int64)
    payload = np.zeros((nworkers, cap, RECORD_WIDTH), dtype=np.float64)
    return header, payload


class TestRingUnit:
    def test_roundtrip_in_order(self):
        header, payload = make_ring(cap=8)
        w = RingWriter(header, payload, 0)
        for i in range(5):
            w.emit(KIND_EXEC, i, i * 10.0, i * 10.0 + 1)
        records, consumed, dropped = drain_lane(header, payload, 0, 0)
        assert dropped == 0 and consumed == 5
        assert [int(r[2]) for r in records] == [0, 1, 2, 3, 4]
        assert [int(r[1]) for r in records] == [0, 1, 2, 3, 4]  # seq

    def test_overflow_drops_oldest(self):
        header, payload = make_ring(cap=4)
        w = RingWriter(header, payload, 0)
        for i in range(10):
            w.emit(KIND_EXEC, i, 0.0, 0.0)
        records, consumed, dropped = drain_lane(header, payload, 0, 0)
        assert dropped == 6
        assert consumed == 10
        # the survivors are the *newest* four, still in sequence order
        assert [int(r[2]) for r in records] == [6, 7, 8, 9]
        assert [int(r[1]) for r in records] == [6, 7, 8, 9]

    def test_incremental_drains(self):
        header, payload = make_ring(cap=4)
        w = RingWriter(header, payload, 0)
        w.emit(KIND_EXEC, 0)
        w.emit(KIND_EXEC, 1)
        records, consumed, dropped = drain_lane(header, payload, 0, 0)
        assert ([int(r[2]) for r in records], dropped) == ([0, 1], 0)
        w.emit(KIND_EXEC, 2)
        records, consumed, dropped = drain_lane(header, payload, 0, consumed)
        assert ([int(r[2]) for r in records], dropped) == ([2], 0)
        records, consumed, dropped = drain_lane(header, payload, 0, consumed)
        assert len(records) == 0 and dropped == 0

    def test_wraparound_across_drains(self):
        header, payload = make_ring(cap=4)
        w = RingWriter(header, payload, 0)
        consumed = 0
        seen = []
        for round_ in range(5):
            for i in range(3):
                w.emit(KIND_EXEC, round_ * 3 + i)
            records, consumed, dropped = drain_lane(header, payload, 0, consumed)
            assert dropped == 0  # 3 <= cap, drained every round
            seen += [int(r[2]) for r in records]
        assert seen == list(range(15))

    def test_emit_never_blocks(self):
        # a writer outrunning the reader by any margin keeps going
        header, payload = make_ring(cap=2)
        w = RingWriter(header, payload, 0)
        for i in range(10_000):
            w.emit(KIND_EXEC, i)
        assert int(header[0]) == 10_000

    def test_lanes_are_independent(self):
        header, payload = make_ring(nworkers=3, cap=4)
        for rank in range(3):
            w = RingWriter(header, payload, rank)
            for i in range(rank + 1):
                w.emit(KIND_EXEC, 100 * rank + i)
        for rank in range(3):
            records, _, dropped = drain_lane(header, payload, rank, 0)
            assert dropped == 0
            assert [int(r[2]) for r in records] == [100 * rank + i for i in range(rank + 1)]

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv(RING_CAP_ENV, "7")
        assert ring_capacity(1000, footprints=True) == 7
        monkeypatch.delenv(RING_CAP_ENV)
        assert ring_capacity(16, footprints=False) >= 1024
        assert ring_capacity(16, footprints=True) >= 16 * 65


class TestBackpressureEndToEnd:
    def run_tiny_ring(self, monkeypatch, cap: int, **kw):
        monkeypatch.setenv(RING_CAP_ENV, str(cap))
        kw.setdefault("backend", "procs")
        kw.setdefault("nthreads", NW)
        kw.setdefault("trace", True)
        return run(make_config(**kw))

    def test_overflow_surfaces_in_result_and_trace_meta(self, monkeypatch):
        res = self.run_tiny_ring(monkeypatch, cap=2, kernel="mandel")
        # 64/16 grid = 16 tiles/iteration over 2 workers: lanes overflow
        assert res.dropped_events > 0
        assert res.counters["dropped_events"] == res.dropped_events
        assert res.trace.meta.extra["dropped_events"] == res.dropped_events
        # the run itself is unharmed: every tile executed exactly once
        assert res.completed_iterations == 2

    def test_survivors_are_newest_and_well_formed(self, monkeypatch):
        res = self.run_tiny_ring(monkeypatch, cap=3, kernel="mandel", iterations=1)
        tiles = [e for e in res.trace if e.kind == "tile"]
        # at most cap events survive per worker lane
        assert 0 < len(tiles) <= NW * 3
        for e in tiles:
            assert 0.0 <= e.start <= e.end

    def test_full_ring_never_blocks_worker(self, monkeypatch):
        import time

        t0 = time.monotonic()
        res = self.run_tiny_ring(monkeypatch, cap=1, kernel="mandel")
        assert time.monotonic() - t0 < 60.0  # bounded: drop-oldest, no wait
        assert res.completed_iterations == 2
        assert res.dropped_events > 0

    def test_junk_capacity_is_rejected_by_name(self, monkeypatch):
        with pytest.raises(ConfigError, match=RING_CAP_ENV):
            self.run_tiny_ring(monkeypatch, cap="abc", kernel="mandel")

    def test_default_capacity_drops_nothing(self):
        res = run(make_config(backend="procs", nthreads=NW, trace=True))
        assert res.dropped_events == 0
        assert "dropped_events" not in res.trace.meta.extra
        assert len([e for e in res.trace if e.kind == "tile"]) == 16 * 2

    def test_footprint_overflow_also_counted(self, monkeypatch):
        res = self.run_tiny_ring(
            monkeypatch, cap=4, kernel="blur", variant="omp_tiled",
            iterations=1, footprints=True,
        )
        # footprints multiply the record count: drops are certain
        assert res.dropped_events > 0
        # the image is still correct — telemetry loss never corrupts work
        ref = run(make_config(kernel="blur", variant="omp_tiled", iterations=1))
        assert np.array_equal(res.image, ref.image)
