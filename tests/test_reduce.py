"""Tests for the parallel_reduce construct."""

import operator
import time

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.engine import run
from repro.sched.costmodel import CostModel
from tests.conftest import make_config

ZERO = CostModel(1.0, 0.0, 0.0, 0.0)


def ctx_with(**kw):
    model = kw.pop("model", ZERO)
    return ExecutionContext(make_config(**kw), model=model)


class TestParallelReduce:
    def test_sum_reduction(self):
        ctx = ctx_with(nthreads=3)
        res, total = ctx.parallel_reduce(
            lambda i: (1.0, i), list(range(10)),
            combine=operator.add, init=0,
        )
        assert total == 45
        assert len(res.timeline) == 10

    def test_max_reduction(self):
        ctx = ctx_with()
        _, biggest = ctx.parallel_reduce(
            lambda i: (1.0, i * 7 % 13), list(range(13)),
            combine=max, init=-1,
        )
        assert biggest == 12

    def test_clock_advances_like_parallel_for(self):
        # the second case's uneven works make nonmonotonic:dynamic steal
        cases = [("dynamic", [1.0] * 4),
                 ("nonmonotonic:dynamic", [1.0] * 6 + [8.0, 9.0])]
        for schedule, works in cases:
            a = ctx_with(nthreads=2, schedule=schedule)
            res = a.parallel_for(lambda i: works[i], range(len(works)))
            b = ctx_with(nthreads=2, schedule=schedule)
            b.parallel_reduce(lambda i: (works[i], 0), range(len(works)),
                              combine=operator.add, init=0)
            assert a.vclock == b.vclock
            assert a.bus.counters == b.bus.counters
        assert res.steals > 0

    @pytest.mark.parametrize("backend", [
        "sim", pytest.param("threads", marks=pytest.mark.slow),
    ])
    def test_combination_order_is_item_order(self, backend):
        def body(i):
            if i == 0:
                time.sleep(0.05)  # on a real team, item 0 completes last
            return 1.0, [i]

        ctx = ctx_with(backend=backend, nthreads=4, schedule="dynamic")
        _, seqs = ctx.parallel_reduce(
            body, list(range(6)), combine=operator.add, init=[],
        )
        assert seqs == [0, 1, 2, 3, 4, 5]  # deterministic, unlike real OpenMP

    def test_default_items_are_tiles(self):
        ctx = ctx_with(dim=64, tile_w=16, tile_h=16)
        _, count = ctx.parallel_reduce(
            lambda t: (1.0, 1), combine=operator.add, init=0
        )
        assert count == 16

    def test_region_log_captured(self):
        ctx = ctx_with()
        ctx.region_log = []
        ctx.parallel_reduce(lambda i: (float(i), i), [1, 2],
                            combine=operator.add, init=0)
        assert ctx.region_log == [("par", [1.0, 2.0])]

    @pytest.mark.slow
    def test_threads_backend(self):
        ctx = ctx_with(backend="threads", nthreads=4)
        _, total = ctx.parallel_reduce(
            lambda i: (1.0, i), list(range(100)),
            combine=operator.add, init=0,
        )
        assert total == sum(range(100))


class TestHeatUsesReduction:
    def test_omp_tiled_still_matches_seq(self):
        cfg = dict(kernel="heat", dim=32, tile_w=8, tile_h=8, iterations=25)
        a = run(make_config(variant="seq", **cfg))
        b = run(make_config(variant="omp_tiled", nthreads=4, **cfg))
        assert np.allclose(a.context.data["temp"], b.context.data["temp"])
        assert a.early_stop == b.early_stop
