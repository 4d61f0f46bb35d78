"""Measured host parallelism: how much faster two CPU burns finish
side by side than one after the other.

``os.cpu_count()`` reports the CPUs a container may use, not the CPU
time it gets; on shared hosts two busy processes can receive far less
than twice the throughput of one.  Each probe round times one burn
alone, then two identical burns released together at the same instant,
and reports ``2 * alone / together``: 2.0 on two free cores, 1.0 when
the processes merely take turns.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

__all__ = [
    "effective_parallelism", "host_record", "reference_task", "reference_launch",
    "ReferencePair", "REFERENCE_TASK_S", "REFERENCE_LAUNCH_S",
]

#: the burn: wait for the shared start instant, spin, print the end instant
_BURN = (
    "import sys, time\n"
    "start = float(sys.argv[1])\n"
    "while time.time() < start:\n"
    "    pass\n"
    "x = 0\n"
    "for i in range(int(sys.argv[2])):\n"
    "    x += i * i\n"
    "print(time.time())\n"
)

#: loop trips of one burn (about 0.1 s of CPU on a current x86 core)
_LOOPS = 1_500_000

#: head start given to the children so both are spinning at ``start``
_LEAD_S = 0.15


def _burn(nprocs: int) -> float:
    """Wall seconds from the shared start to the last burn's end."""
    start = time.time() + _LEAD_S
    procs = [
        subprocess.Popen(
            [sys.executable, "-S", "-c", _BURN, repr(start), str(_LOOPS)],
            stdout=subprocess.PIPE, text=True,
        )
        for _ in range(nprocs)
    ]
    ends = []
    for p in procs:
        out, _ = p.communicate(timeout=60)
        ends.append(float(out.strip()))
    return max(ends) - start


#: loop trips, array side and record count of the reference task
_REF_LOOPS = 40_000
_REF_SIDE = 192
_REF_RECORDS = 600

#: what the reference task takes on a quiet development host (Xeon,
#: Python 3.11, NumPy 2.4): the unit of host-speed-normalized times
REFERENCE_TASK_S = 0.0055

_ref_array = None


def reference_task(repeat: int = 1) -> float:
    """Wall seconds of a fixed task independent of the program, per
    repetition: an integer loop, a few NumPy passes over a small array,
    and building and JSON-encoding small dict records.  Timed next to
    the measured work, it tracks how fast the host runs right now.  The
    records matter: allocation-heavy code such as traced runs slows more
    under contention than a tight loop, and the loop alone tracked those
    ops three times worse."""
    import numpy as np

    global _ref_array
    if _ref_array is None:
        _ref_array = np.random.default_rng(0).random((_REF_SIDE, _REF_SIDE))
    t0 = time.perf_counter()
    for _ in range(repeat):
        x = 0
        for i in range(_REF_LOOPS):
            x += i * i
        b = _ref_array
        for _ in range(6):
            b = np.sqrt(b * 1.0001 + 0.5)
        records = [
            {"cpu": i % 4, "start": i * 1e-6, "meta": {"index": i}}
            for i in range(_REF_RECORDS)
        ]
        "".join(json.dumps(r) for r in records)
    return (time.perf_counter() - t0) / repeat


class ReferencePair:
    """The reference task on two CPUs at once: this process and a helper
    run it together, and the slower of the two is the pair's time.  It
    tracks the host speed that ops spanning two processes see.  Each
    side runs the task ``REPEAT`` times per measurement."""

    REPEAT = 1

    _HELPER = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from hostprobe import reference_task\n"
        "reference_task()\n"
        "for line in sys.stdin:\n"
        "    print(reference_task(int(line)), flush=True)\n"
    )

    def __init__(self) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        self._proc = subprocess.Popen(
            [sys.executable, "-c", self._HELPER, here],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> float:
        self._proc.stdin.write(f"{self.REPEAT}\n")
        self._proc.stdin.flush()
        mine = reference_task(self.REPEAT)
        theirs = float(self._proc.stdout.readline())
        return max(mine, theirs)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


#: what :func:`reference_launch` takes on the same quiet host
REFERENCE_LAUNCH_S = 0.146


def reference_launch() -> float:
    """Wall seconds of a fresh interpreter importing NumPy: the
    program-independent counterpart of a cold command, which tracks
    process start-up and import speed on the host right now."""
    t0 = time.perf_counter()
    # no timeout: it would make the wait poll the exit in 50 ms steps
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def effective_parallelism(rounds: int = 3) -> dict:
    """Median and spread of the two-process burn ratio over ``rounds``."""
    ratios = []
    for _ in range(rounds):
        alone = _burn(1)
        together = _burn(2)
        ratios.append(2.0 * alone / together)
    return {
        "median": statistics.median(ratios),
        "min": min(ratios),
        "max": max(ratios),
        "ratios": ratios,
    }


def host_record(probe: dict, numpy_version: str, numba: bool) -> dict:
    """What a number from this host must be read together with."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count() or 1
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "effective_parallelism": probe,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": numba,
        "machine": platform.machine(),
    }
