"""OpenMP-like runtime: worksharing loops, tasks, ICVs."""

from repro.omp.icv import DEFAULT_NUM_THREADS, Icvs, resolve_icvs
from repro.omp.parallel import parallel_for, parallel_reduce, sequential_for
from repro.omp.tasks import TaskRegion

__all__ = [
    "DEFAULT_NUM_THREADS",
    "Icvs",
    "resolve_icvs",
    "parallel_for",
    "parallel_reduce",
    "sequential_for",
    "TaskRegion",
]
