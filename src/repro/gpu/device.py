"""SIMT device simulator: the OpenCL substrate.

EASYPAP's OpenCL support is partial — kernels run and render, but
monitoring/trace integration is listed as future work (paper §V), to be
built on OpenCL profiling events.  This module provides the equivalent
device model *with* profiling: work-groups execute in lockstep (a
group's cost is the **maximum** of its lanes' costs — divergent lanes
stall the whole group), groups are dispatched dynamically over compute
units, and the resulting timeline feeds the same monitoring/trace stack
as CPU variants.

The lockstep rule is what makes the Mandelbrot kernel interesting on a
GPU: tiles straddling the set boundary pay the worst-lane price, which
:func:`divergence_penalty` quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.sched.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sched.policies import DynamicSchedule
from repro.sched.simulator import simulate
from repro.sched.timeline import Timeline

__all__ = ["DeviceSpec", "LaunchResult", "GpuDevice", "divergence_penalty"]


@dataclass(frozen=True)
class DeviceSpec:
    """A virtual GPU: compute units + lane-speed ratio vs one CPU core.

    ``lane_speedup`` expresses how much faster one *fully converged*
    lane-step is than the CPU scalar work unit (GPUs win on throughput);
    ``launch_overhead`` is the per-kernel-launch cost in virtual seconds.
    """

    num_cus: int = 8
    #: SIMD width of one CU: a work-group of L lanes executes in
    #: ceil(L / lanes_per_group) serial wavefronts
    lanes_per_group: int = 64
    lane_speedup: float = 4.0
    launch_overhead: float = 20e-6
    #: host<->device bandwidth (PCIe-class); transfers serialize before
    #: and after the kernel, which is what makes memory-bound kernels
    #: transfer-bound on a GPU
    bytes_per_second: float = 8e9


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    timeline: Timeline
    group_costs: list[float] = field(default_factory=list)
    total_lane_work: float = 0.0
    total_lockstep_work: float = 0.0
    transfer_in_time: float = 0.0
    transfer_out_time: float = 0.0

    @property
    def makespan(self) -> float:
        """End-to-end time including the output transfer."""
        return self.timeline.makespan + self.transfer_out_time

    @property
    def transfer_fraction(self) -> float:
        """Share of the launch spent moving data (1.0 = fully
        transfer-bound)."""
        total = self.makespan
        if total <= 0:
            return 0.0
        return (self.transfer_in_time + self.transfer_out_time) / total

    @property
    def divergence_penalty(self) -> float:
        """lockstep work / useful lane work, >= 1; 1 = no divergence."""
        if self.total_lane_work <= 0:
            return 1.0
        return self.total_lockstep_work / self.total_lane_work


def divergence_penalty(lane_costs: np.ndarray) -> float:
    """Divergence of a single group: max(lanes) * nlanes / sum(lanes)."""
    total = float(lane_costs.sum())
    if total <= 0:
        return 1.0
    return float(lane_costs.max()) * lane_costs.size / total


class GpuDevice:
    """Executes 2D pixel workloads group by group."""

    def __init__(self, spec: DeviceSpec | None = None, model: CostModel = DEFAULT_COST_MODEL):
        self.spec = spec or DeviceSpec()
        self.model = model

    def launch(
        self,
        lane_costs: np.ndarray,
        *,
        group_w: int = 8,
        group_h: int = 8,
        items: list | None = None,
        start_time: float = 0.0,
        meta: dict | None = None,
        transfer_in_bytes: int = 0,
        transfer_out_bytes: int = 0,
    ) -> LaunchResult:
        """Run a kernel whose per-pixel cost (in work units) is
        ``lane_costs``; the NDRange is partitioned into
        ``group_w x group_h`` work-groups dispatched over the CUs.

        ``items`` optionally attaches one object per group (e.g. tiles)
        to the timeline, in row-major group order.
        ``transfer_in_bytes`` / ``transfer_out_bytes`` model host→device
        and device→host copies serializing around the kernel.
        """
        H, W = lane_costs.shape
        if H % group_h or W % group_w:
            raise ConfigError(
                f"NDRange {W}x{H} not divisible by group {group_w}x{group_h}"
            )
        rows, cols = H // group_h, W // group_w
        groups = lane_costs.reshape(rows, group_h, cols, group_w).swapaxes(1, 2)
        # lockstep: the group advances at the pace of its slowest lane
        lock = groups.max(axis=(2, 3)).astype(np.float64)
        lane_sum = groups.sum(axis=(2, 3)).astype(np.float64)
        unit = self.model.seconds_per_unit / self.spec.lane_speedup
        # a group wider than the CU's SIMD width runs as serial wavefronts
        wavefronts = -(-(group_w * group_h) // self.spec.lanes_per_group)
        costs = (lock * (unit * wavefronts)).ravel().tolist()
        ngroups = rows * cols
        if items is not None and len(items) != ngroups:
            raise ConfigError(f"{len(items)} items for {ngroups} groups")
        t_in = transfer_in_bytes / self.spec.bytes_per_second
        t_out = transfer_out_bytes / self.spec.bytes_per_second
        result = simulate(
            costs,
            DynamicSchedule(1),
            self.spec.num_cus,
            items=items,
            model=self.model,
            start_time=start_time + self.spec.launch_overhead + t_in,
            meta=dict(meta or {}, device="gpu"),
        )
        # per-work-group lockstep-cost counters: every simulated task
        # carries its lockstep work, useful lane work and divergence
        # ratio, so the telemetry bus (and any trace recorded from it)
        # can chart where the SIMT penalty is paid
        lockstep = (lock.ravel() * (group_w * group_h)).tolist()
        lane_work = lane_sum.ravel().tolist()
        sim = result.timeline
        timeline = Timeline(
            sim.items, sim.index, sim.cpu, sim.start, sim.end,
            ncpus=sim.ncpus, meta=sim.meta,
            columns={
                "lockstep": lockstep,
                "lane_work": lane_work,
                "divergence": [round(ls / lw, 6) if lw > 0 else 1.0
                               for ls, lw in zip(lockstep, lane_work)],
            },
        )
        return LaunchResult(
            timeline=timeline,
            group_costs=costs,
            total_lane_work=float(lane_sum.sum()),
            # every lane of the group runs for the slowest lane's duration
            total_lockstep_work=float(lock.sum()) * group_w * group_h,
            transfer_in_time=t_in,
            transfer_out_time=t_out,
        )
