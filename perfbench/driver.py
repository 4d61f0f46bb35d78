"""The workload driver: one process running one workload as a closed loop.

``run.py`` launches it and times it from launch to the ``READY`` line
(``setup_s``).  The driver then computes the references, runs one
untimed warm-up cycle and measures whole cycles of ops until
``--seconds`` have passed, checking every op.  With ``--trace 1`` odd
cycles run with the layer spans installed and even cycles without, so
the per-layer numbers and the tracing overhead come from the same run.
The last stdout line is ``RESULT <json>`` with the raw samples.

Usage (normally through ``run.py``)::

    PYTHONPATH=src python perfbench/driver.py --workload perf_frames \\
        --seed 1 --seconds 10 --trace 0 --work .perfbench/work
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Callable

import hostprobe
import spans
from workloads import Outcome, make_workload

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus its descendants: the peak of every
    live descendant (``/proc``) plus the largest exited, waited-for
    child (``RUSAGE_CHILDREN``)."""
    me = os.getpid()
    children: dict[int, list[int]] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        entries = []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total_kb = 0
    stack = [me]
    while stack:
        pid = stack.pop()
        total_kb += _hwm_kb(pid)
        stack.extend(children.get(pid, ()))
    if total_kb == 0:
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return total_kb / 1024.0


def drive(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    *,
    tiny: bool = False,
    setup_only: bool = False,
    ready: Callable[[], None] | None = None,
    refs_hook: Callable[[dict], None] | None = None,
) -> dict | None:
    """Set up, signal ``ready``, then measure; returns the raw result
    (None with ``setup_only``)."""
    wl = make_workload(workload, work, tiny)
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    ops = wl.pool(rng)
    recorder = spans.SpanRecorder() if trace else None
    if recorder is not None:
        # installed during set-up so pool spawns are recorded too
        patcher = spans.Patcher(recorder)
        spans.layer_targets(patcher)
        patcher.install()
    try:
        wl.setup()
    finally:
        if recorder is not None:
            patcher.remove()
    if ready is not None:
        ready()
    pair = cpus = None
    try:
        if setup_only:
            return None
        # the helper of the two-CPU reference starts before the pin below
        pair = hostprobe.ReferencePair() if wl.two_cpu_ops else None
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        if wl.pin_driver and cpus:
            # the driver thread (and the thread teams it starts from now
            # on) stays on one CPU, the CPU its reference task is timed
            # on; pools spawned during set-up keep every CPU
            os.sched_setaffinity(0, {min(cpus)})
        return _measure(wl, ops, rng, seconds, recorder, pair, refs_hook)
    finally:
        if pair is not None:
            pair.close()
        wl.teardown()
        if cpus:
            os.sched_setaffinity(0, cpus)


def _measure(wl, ops, rng, seconds, recorder, pair, refs_hook) -> dict:
    refs: dict = {}
    for op in ops:
        if op.key not in refs:
            refs[op.key] = wl.reference(op)
    wl.refs = refs
    if refs_hook is not None:
        refs_hook(refs)
    patcher = None
    if recorder is not None:
        # rebuilt after set-up: kernels loaded there are wrapped too
        patcher = spans.Patcher(recorder)
        spans.layer_targets(patcher)

    def one(op, index: int, traced: bool) -> dict:
        wl.prepare(op, index)
        cal = hostprobe.reference_task()
        cal2 = pair.measure() if pair is not None else cal
        if traced:
            recorder.op_index = index
            patcher.install()
        t0 = time.perf_counter()
        try:
            result = wl.execute(op)
            error = ""
        except Exception as exc:  # a failed op is counted, never fatal
            result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            patcher.remove()
            recorder.op_index = -1
        if error:
            out = Outcome(False, reason=error)
        else:
            try:
                out = wl.check(op, result)
            except Exception as exc:
                out = Outcome(False, reason=f"{op.kind}: check: {type(exc).__name__}: {exc}")
        wl.cleanup(op)
        return {
            "key": op.key, "kind": op.kind, "dt": dt, "cal": cal, "cal2": cal2,
            "cpus": op.cpus, "ok": out.ok, "traced": traced,
            "frames": out.frames, "points": out.points, "digest": out.digest,
            "reason": out.reason,
        }

    warmup = [one(op, -1, False) for op in wl.cycle(rng, ops)]
    samples = []
    first_cycle: list[str] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        order = wl.cycle(rng, ops)
        if cycle == 0:
            first_cycle = [op.kind for op in order]
        traced = recorder is not None and cycle % 2 == 1
        for op in order:
            samples.append(one(op, len(samples), traced))
        cycle += 1
        if time.perf_counter() - start >= seconds and (recorder is None or cycle % 2 == 0):
            break
    rss_mb = tree_peak_rss_mb()

    digests: dict[str, list[str]] = {}
    for s in samples:
        if s["digest"]:
            digests.setdefault(s["key"], [])
            if s["digest"] not in digests[s["key"]]:
                digests[s["key"]].append(s["digest"])
    layers = None
    if recorder is not None:
        traced_ops = sum(1 for s in samples if s["traced"])
        layers = spans.layer_metrics(recorder, traced_ops)
    import numpy

    return {
        "samples": samples,
        "warmup_failures": [w["reason"] for w in warmup if not w["ok"]],
        "cycles": cycle,
        "first_cycle": first_cycle,
        "rss_mb": rss_mb,
        "digests": digests,
        "layers": layers,
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    def ready() -> None:
        print(READY, flush=True)

    out = drive(
        args.workload, args.seed, args.seconds, bool(args.trace), Path(args.work),
        setup_only=args.setup_only, ready=ready,
    )
    if out is not None:
        print(RESULT + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
