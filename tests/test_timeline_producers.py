"""Every region producer fills the columns of its timeline, and the trace
recorder and the monitor read those columns: no run builds a row object.

``TaskExec`` is patched to raise while traced, monitored runs of every
region kind execute — the sequential, parallel-for, reduction, policy
DAG and task DAG regions of the simulator, the ``threads`` and
``procs`` backends, and the ``ocl`` device.
"""

from __future__ import annotations

import pytest

from repro.core.engine import run
from repro.omp.procs import shutdown_pools
from repro.sched.timeline import TaskExec
from tests.conftest import make_config

RUNS = {
    "seq": dict(kernel="sandpile", variant="seq"),
    "par": dict(kernel="mandel", variant="omp_tiled", schedule="nonmonotonic:dynamic"),
    "reduce": dict(kernel="heat", variant="omp_tiled"),
    "policy_dag": dict(kernel="lu_wavefront", variant="omp_tiled"),
    "task_dag": dict(kernel="cc", variant="omp_task", iterations=1),
    "threads": dict(kernel="mandel", variant="omp_tiled", backend="threads",
                    schedule="nonmonotonic:dynamic"),
    "procs": dict(kernel="mandel", variant="omp_tiled", backend="procs", nthreads=2),
    "ocl": dict(kernel="mandel", variant="ocl"),
}


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_at_end():
    yield
    shutdown_pools()


@pytest.fixture
def no_rows(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a run built a TaskExec row")

    monkeypatch.setattr(TaskExec, "__init__", refuse)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_monitored_run_builds_no_rows(name, no_rows):
    res = run(make_config(dim=32, tile_w=8, tile_h=8, trace=True, monitoring=True,
                          **RUNS[name]))
    assert res.trace.events
    assert res.monitor.records
    assert sum(r.ntasks for r in res.monitor.records) == len(res.trace.events)
    with pytest.raises(AssertionError, match="TaskExec"):
        TaskExec("x", 0, 0.0, 1.0)
