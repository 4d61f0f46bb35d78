"""Keep freed frame buffers in the process: pin glibc's heap policy.

By default glibc hands a run's 0.5-2 MiB frame buffers back to the OS
when they are freed (``munmap`` above the mmap threshold, a heap trim
above the trim threshold), and the next run faults every page in again.
:func:`pin_heap` fixes both thresholds once per process, so warm runs
reuse the pages.  Fixing either threshold also turns off glibc's
sliding thresholds, which is what lets the trim threshold stay above the
heap's free top.

* mmap threshold 4 MiB: above every buffer of the benchmarked frame
  sizes (a 512² float64 heat field is 2 MiB plus a header; at 2 MiB
  they are still mapped and unmapped on every run).  Larger buffers
  keep going straight to and from the OS.
* trim threshold 32 MiB: the heap's free top between runs reaches tens
  of MiB when several frames' buffers are freed together; at 16 MiB a
  ``perf_frames`` cycle still faults in hundreds to thousands of pages.
  The cost is up to that much freed memory kept resident between runs;
  peak RSS does not change.

Forked workers inherit the setting.  An operator who sets glibc's own
tunables (``MALLOC_*_`` or ``GLIBC_TUNABLES``) keeps them: the heap is
left alone.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["pin_heap"]

#: glibc's ``mallopt`` parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 32 << 20


def pin_heap() -> bool:
    """Set glibc's mmap and trim thresholds; True when both were set.

    False, changing nothing, when the environment sets glibc's malloc
    tunables or the C library has no ``mallopt``.  Calling it again
    sets the same values.  ``ctypes.CDLL(None)`` opens the running
    process; ``ctypes.util.find_library`` would run ``ldconfig`` in a
    subprocess on every import.
    """
    if "GLIBC_TUNABLES" in os.environ or any(
        k.startswith("MALLOC_") and k.endswith("_") for k in os.environ
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no process handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set
