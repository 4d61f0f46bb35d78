"""Tests for the SIMT device simulator (EXT2)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpu.device import DeviceSpec, GpuDevice, divergence_penalty
from repro.sched.costmodel import CostModel

ZERO = CostModel(1.0, 0.0, 0.0, 0.0)


def device(**kw):
    spec = DeviceSpec(launch_overhead=0.0, lane_speedup=1.0, **kw)
    return GpuDevice(spec, model=ZERO)


class TestLaunch:
    def test_uniform_costs_no_divergence(self):
        d = device(num_cus=2)
        res = d.launch(np.full((8, 8), 3.0), group_w=4, group_h=4)
        assert res.divergence_penalty == pytest.approx(1.0)
        assert len(res.timeline) == 4  # 2x2 groups

    def test_lockstep_pays_worst_lane(self):
        d = device(num_cus=1)
        costs = np.ones((4, 4))
        costs[0, 0] = 100.0  # one divergent lane in the single group
        res = d.launch(costs, group_w=4, group_h=4)
        assert res.timeline.makespan == pytest.approx(100.0)
        assert res.divergence_penalty == pytest.approx(100.0 * 16 / 115.0)

    def test_divergence_penalty_function(self):
        assert divergence_penalty(np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert divergence_penalty(np.array([1.0, 3.0])) == pytest.approx(1.5)
        assert divergence_penalty(np.zeros(4)) == 1.0

    def test_groups_dispatched_over_cus(self):
        d = device(num_cus=4)
        res = d.launch(np.ones((8, 8)), group_w=4, group_h=4)
        assert {e.cpu for e in res.timeline} == {0, 1, 2, 3}
        assert res.timeline.makespan == pytest.approx(1.0)  # all CUs in parallel

    def test_ndrange_divisibility_checked(self):
        with pytest.raises(ConfigError):
            device().launch(np.ones((10, 10)), group_w=4, group_h=4)

    def test_items_attached_in_group_order(self):
        d = device(num_cus=1)
        res = d.launch(np.ones((4, 8)), group_w=4, group_h=4,
                       items=["g0", "g1"])
        ordered = sorted(res.timeline, key=lambda e: e.start)
        assert [e.item for e in ordered] == ["g0", "g1"]

    def test_items_length_checked(self):
        with pytest.raises(ConfigError):
            device().launch(np.ones((4, 4)), group_w=4, group_h=4,
                            items=["a", "b"])

    def test_launch_overhead_and_lane_speedup(self):
        spec = DeviceSpec(num_cus=1, lane_speedup=2.0, launch_overhead=5.0)
        d = GpuDevice(spec, model=ZERO)
        res = d.launch(np.full((4, 4), 8.0), group_w=4, group_h=4)
        # 8 work units at half cost, after 5s launch overhead
        assert res.timeline.makespan == pytest.approx(5.0 + 4.0)

    def test_meta_tagged_gpu(self):
        res = device().launch(np.ones((4, 4)), group_w=4, group_h=4,
                              meta={"iteration": 2})
        e = next(iter(res.timeline))
        assert e.meta["device"] == "gpu" and e.meta["iteration"] == 2


class TestMandelOcl:
    def test_divergence_on_set_boundary(self):
        from repro.core.engine import run
        from tests.conftest import make_config

        r = run(make_config(kernel="mandel", variant="ocl", dim=64, tile_w=8,
                            tile_h=8, iterations=1))
        assert r.context.data["divergence"] > 1.2  # boundary tiles diverge

    def test_traced_events_carry_the_lockstep_counters(self):
        from repro.core.engine import run
        from tests.conftest import make_config

        r = run(make_config(kernel="mandel", variant="ocl", dim=64, tile_w=8,
                            tile_h=8, iterations=2, trace=True))
        events = r.trace.events
        assert len(events) == 2 * 64
        for e in events:
            assert list(e.extra) == ["device", "index", "lockstep", "lane_work",
                                     "divergence"]
        assert sum(e.extra["lockstep"] for e in events) == pytest.approx(
            r.counters["gpu_lockstep_work"])
        assert sum(e.extra["lane_work"] for e in events) == pytest.approx(
            r.counters["gpu_lane_work"])

    def test_ocl_needs_divisible_tiles(self):
        from repro.core.engine import run
        from tests.conftest import make_config

        with pytest.raises(ConfigError, match="dividing"):
            run(make_config(kernel="mandel", variant="ocl", dim=60, tile_w=16,
                            tile_h=16, iterations=1))


class TestTransferModel:
    def test_transfer_time_accounted(self):
        d = device(num_cus=1)
        spec = d.spec
        res = d.launch(np.ones((4, 4)), group_w=4, group_h=4,
                       transfer_in_bytes=int(spec.bytes_per_second),
                       transfer_out_bytes=int(spec.bytes_per_second // 2))
        assert res.transfer_in_time == pytest.approx(1.0)
        assert res.transfer_out_time == pytest.approx(0.5)
        # input transfer delays the kernel; output extends the makespan
        assert next(iter(res.timeline)).start >= 1.0
        assert res.makespan >= res.timeline.makespan + 0.5

    def test_transfer_fraction_bounds(self):
        d = device(num_cus=1)
        none = d.launch(np.ones((4, 4)), group_w=4, group_h=4)
        assert none.transfer_fraction == pytest.approx(0.0)

    def test_blur_is_transfer_bound_mandel_is_not(self):
        """The §V lesson our extension makes measurable: a memory-bound
        stencil wastes the bus; mandel amortizes it with compute."""
        from repro.core.engine import run
        from tests.conftest import make_config

        cfg = dict(dim=256, tile_w=16, tile_h=16, iterations=1, nthreads=8)
        blur = run(make_config(kernel="blur", variant="ocl", **cfg))
        mandel = run(make_config(kernel="mandel", variant="ocl", arg="1024",
                                 **cfg))
        bf = blur.context.data["transfer_fraction"]
        mf = mandel.context.data["transfer_fraction"]
        assert bf > 0.5  # the stencil spends most of the launch on the bus
        assert mf < bf / 1.5  # heavy compute amortizes the same transfers

    def test_blur_ocl_matches_seq(self):
        import numpy as np
        from repro.core.engine import run
        from tests.conftest import make_config

        cfg = dict(kernel="blur", dim=24, tile_w=8, tile_h=8, iterations=2,
                   seed=7)
        a = run(make_config(variant="seq", **cfg))
        b = run(make_config(variant="ocl", **cfg))
        assert np.array_equal(a.image, b.image)
