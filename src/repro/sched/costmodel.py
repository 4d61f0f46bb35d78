"""Cost models: converting kernel *work units* into virtual time.

Kernels report deterministic work units (e.g. mandel: number of inner
escape-loop iterations executed; stencils: pixels touched, weighted by
whether the code path vectorizes).  The simulator runs on virtual
seconds, so a :class:`CostModel` provides the conversion plus the
runtime overheads that make granularity trade-offs visible (paper
Fig. 6: tiny chunks lose to dispatch overhead).

The default constants are calibrated so a 1024x1024 mandel iteration
lands in the hundreds-of-milliseconds range of the paper's example runs
("50 iterations completed in 579 ms"); absolute values are irrelevant to
the reproduced *shapes*, only their ratios matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "measured_costs", "uniform_costs"]


@dataclass(frozen=True)
class CostModel:
    """Work-unit → virtual-seconds conversion and runtime overheads.

    Attributes
    ----------
    seconds_per_unit:
        Virtual seconds per work unit (≈ one arithmetic-dominated inner
        loop iteration of compiled code).
    dispatch_overhead:
        Cost paid by a thread each time it grabs a chunk from the
        scheduler (atomic increment + bookkeeping).
    steal_overhead:
        Extra cost of a successful steal (victim selection + CAS).
    fork_join_overhead:
        Cost per parallel region / per-iteration barrier.
    """

    seconds_per_unit: float = 5e-9
    dispatch_overhead: float = 2.5e-7
    steal_overhead: float = 1.5e-6
    fork_join_overhead: float = 5e-6

    def time_of(self, work: float) -> float:
        return work * self.seconds_per_unit

    def times_of(self, works: Iterable[float]) -> list[float]:
        f = self.seconds_per_unit
        return [w * f for w in works]

    def scaled(self, factor: float) -> "CostModel":
        """A model with all costs multiplied by ``factor``."""
        return CostModel(
            seconds_per_unit=self.seconds_per_unit * factor,
            dispatch_overhead=self.dispatch_overhead * factor,
            steal_overhead=self.steal_overhead * factor,
            fork_join_overhead=self.fork_join_overhead * factor,
        )

    def zero_overhead(self) -> "CostModel":
        """Same conversion factor, no runtime overheads (ablations)."""
        return CostModel(
            seconds_per_unit=self.seconds_per_unit,
            dispatch_overhead=0.0,
            steal_overhead=0.0,
            fork_join_overhead=0.0,
        )


DEFAULT_COST_MODEL = CostModel()


def perturb(costs: Sequence[float], rng, sigma: float) -> list[float]:
    """Apply multiplicative system noise to per-item costs.

    Each cost is scaled by a normal factor N(1, sigma), floored at 5% —
    the model behind run-to-run variability (OS jitter, frequency
    scaling) that makes repeated measurements differ and gives speedup
    plots their error bars.  ``sigma == 0`` is the deterministic default.
    """
    if sigma <= 0.0 or not costs:
        return list(costs)
    factors = rng.normal(1.0, sigma, size=len(costs)).tolist()
    # Python floats out, whatever the element type in: the schedulers
    # publish the times they fold from these
    return [float(c) * max(f, 0.05) for c, f in zip(costs, factors)]


def uniform_costs(n: int, cost: float = 1.0) -> list[float]:
    """``n`` identical costs (useful for synthetic schedules in tests)."""
    return [cost] * n


def measured_costs(works: Sequence[float], model: CostModel = DEFAULT_COST_MODEL) -> list[float]:
    """Convert a sequence of work units into virtual-second costs."""
    return model.times_of(works)
