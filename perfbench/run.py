"""The repository benchmark: one command, four workloads, every metric.

    python3 perfbench/run.py --workload perf_frames --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one workload;
with ``--trace 1`` the per-layer metrics of a traced run of the same
workload.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat every metric by name with its unit, plus the host record
(measured parallelism, ``nproc``, Python, NumPy, numba).  A copy of the
full record goes to ``.perfbench/results/``.

The run, in order: a host probe; the headline cold command run several
times in fresh interpreters (``cold_s_p50``; with ``--trace 1``, under
``-X importtime`` instead); set-up-only launches of the workload driver
(``setup_s`` is the median over those and the measuring launch); and the
measuring driver itself, which runs the closed loop for ``--seconds``.
Every child runs in its own process group, and the benchmark waits for
each group to be empty before it goes on.

It needs the repository sources next to it (``src/repro``) and exits
with status 2, printing no result, when they are missing.
See ``perfbench/README.md`` for the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostprobe  # noqa: E402
from driver import READY, RESULT  # noqa: E402
from spans import PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("perf_frames", "instrumented", "real_parallel", "sweep")

END_TO_END = {
    "setup_s": "s",
    "cold_s_p50": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "frames_per_s": "1/s",
    "points_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: fresh-interpreter samples per run: headline command and driver set-ups
COLD_SAMPLES = 11
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
#: the driver gets ``--seconds`` plus this much for set-up and references
DRIVER_SLACK_S = 120
#: every child's timeout is cut so that the whole run ends within this
RUN_BUDGET_S = 170


# -- child processes ----------------------------------------------------------

def child_env() -> dict:
    """The environment of every child: the checkout's sources first, and
    no OpenMP or repro settings leaking in from the caller."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("OMP_", "REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of a process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def reap_group(pgid: int, timeout: float = 15.0) -> None:
    """Wait until every process of the group has ended; kill leftovers."""
    if not os.path.isdir("/proc"):  # pragma: no cover - non-Linux
        return
    deadline = time.monotonic() + timeout
    while _group_members(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], cwd: Path, timeout: float,
              capture_stderr: bool = False) -> tuple[float, int | None, str]:
    """Run one child to completion; ``(seconds, returncode, stderr)``
    with ``returncode`` None on timeout.  The time runs until the child
    itself exits, as a shell would wait for it.  The timeout is a
    watchdog thread: ``communicate(timeout=...)`` polls the child's exit
    in steps of up to 50 ms, which would quantize the measured time."""
    fired = []

    def expire() -> None:
        fired.append(True)
        _kill(proc)

    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(), text=True, start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE if capture_stderr else subprocess.DEVNULL,
    )
    watchdog = threading.Timer(timeout, expire)
    watchdog.start()
    try:
        _, err = proc.communicate()
        elapsed = time.perf_counter() - t0
    finally:
        watchdog.cancel()
        reap_group(proc.pid)
    return elapsed, None if fired else proc.returncode, err or ""


def launch_driver(args: list[str], cwd: Path, timeout: float) -> tuple[float | None, dict | None]:
    """Launch the workload driver; ``(setup_seconds, result)`` where the
    set-up time runs from launch to the driver's ready line."""
    argv = [sys.executable, str(HERE / "driver.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(), text=True, start_new_session=True,
        stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(timeout, _kill, (proc,))
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == READY:
                setup_s = time.perf_counter() - t0
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        proc.wait()
    finally:
        watchdog.cancel()
        reap_group(proc.pid)
    if proc.returncode != 0:
        return None, None
    return setup_s, result


# -- measurements --------------------------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Self time per package from ``python -X importtime`` output."""
    total = numpy_s = repro_s = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        parts = line.split("|")
        try:
            self_us = float(parts[0].split(":")[1])
        except (IndexError, ValueError):
            continue
        name = parts[-1].strip()
        total += self_us
        if name == "numpy" or name.startswith("numpy."):
            numpy_s += self_us
        elif name == "repro" or name.startswith("repro."):
            repro_s += self_us
    return {
        "import.total_s": total / 1e6,
        "import.numpy_s": numpy_s / 1e6,
        "import.repro_s": repro_s / 1e6,
    }


def headline_of(workload: str, work: Path) -> list[str]:
    from workloads import make_workload

    return make_workload(workload, work).headline()


def calibrated(seconds: float, measured: float, nominal: float) -> float:
    """``seconds`` rescaled to the reference host speed: times a
    reference's nominal duration over its measured one."""
    return seconds * nominal / measured


def op_times(samples: list[dict], normalize: bool) -> list[float]:
    """Op wall times, optionally rescaled by the median reference task
    of the five ops around each one, timed on as many CPUs as the op
    keeps busy."""
    if not normalize:
        return [s["dt"] for s in samples]
    out = []
    for i, s in enumerate(samples):
        field = "cal2" if s["cpus"] > 1 else "cal"
        window = [n[field] for n in samples[max(0, i - 2): i + 3]]
        out.append(calibrated(s["dt"], statistics.median(window), hostprobe.REFERENCE_TASK_S))
    return out


def end_to_end(raw: dict, setups: list[float], colds: list[float], launches: list[float],
               normalize: bool = True) -> dict:
    """The end-to-end metrics.  Set-up and cold times are rescaled by
    the median reference launch of the run, op times by the reference
    tasks timed next to them."""
    samples = raw["samples"]
    dts = op_times(samples, normalize)
    wall = sum(dts)
    scale = 1.0
    if normalize:
        scale = calibrated(1.0, statistics.median(launches), hostprobe.REFERENCE_LAUNCH_S)
    return {
        "setup_s": statistics.median(setups) * scale,
        "cold_s_p50": statistics.median(colds) * scale,
        "op_s_p50": statistics.median(dts),
        "op_s_p90": statistics.quantiles(dts, n=10, method="inclusive")[8],
        "frames_per_s": sum(s["frames"] for s in samples) / wall,
        "points_per_s": sum(s["points"] for s in samples) / wall,
        "ok_ratio": sum(1 for s in samples if s["ok"]) / len(samples),
        "peak_rss_mb": raw["rss_mb"],
    }


def per_layer(raw: dict, imports: dict, probe: dict, nproc: int, fail_ratio: float) -> dict:
    samples = raw["samples"]
    m = dict(raw["layers"])
    m.update(imports)
    traced = [s["dt"] for s in samples if s["traced"]]
    plain = [s["dt"] for s in samples if not s["traced"]]
    m["bench.tracing_overhead.ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    seq = [s["dt"] for s in samples if s["key"] == "pymandel.seq"]
    par = [s["dt"] for s in samples if s["key"] == "pymandel.procs"]
    m["procs.speedup_vs_seq"] = (
        statistics.median(seq) / statistics.median(par) if seq and par else 0.0
    )
    m["host.effective_parallelism"] = probe["median"]
    m["host.nproc"] = nproc
    m["fail_ratio"] = fail_ratio
    return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="the repository benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repository sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    driver_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--work", str(work),
    ]
    failures: list[str] = []
    cold_attempts = 0
    deadline = time.monotonic() + RUN_BUDGET_S

    def left(cap: float) -> float:
        return max(1.0, min(cap, deadline - time.monotonic()))

    try:
        probe = hostprobe.effective_parallelism()
        headline = [sys.executable, "-m", *headline_of(args.workload, work)]
        colds: list[float] = []
        launches: list[float] = []
        imports: dict[str, float] = {}
        if trace:
            runs = []
            for _ in range(IMPORTTIME_SAMPLES):
                _, rc, err = run_child(
                    [sys.executable, "-X", "importtime", *headline[1:]], work, left(120),
                    capture_stderr=True,
                )
                cold_attempts += 1
                if rc != 0:
                    failures.append(f"cold command exited {rc}")
                runs.append(parse_importtime(err))
            imports = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        else:
            # the first launch writes bytecode caches; it is not a sample
            run_child(headline, work, left(120))
            for _ in range(COLD_SAMPLES):
                for leftover in ("cold.csv", "cold.evt"):
                    (work / leftover).unlink(missing_ok=True)
                launches.append(hostprobe.reference_launch())
                seconds, rc, _ = run_child(headline, work, left(120))
                cold_attempts += 1
                if rc != 0:
                    failures.append(f"cold command exited {rc}")
                colds.append(seconds)
        setups: list[float] = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                launches.append(hostprobe.reference_launch())
                setup_s, _ = launch_driver(
                    [*driver_args, "--seconds", "0", "--setup-only"], work, left(120)
                )
                if setup_s is None:
                    print("perfbench: driver set-up failed", file=sys.stderr)
                    return 1
                setups.append(setup_s)
        setup_s, raw = launch_driver(
            [*driver_args, "--seconds", str(args.seconds)], work,
            left(args.seconds + DRIVER_SLACK_S),
        )
        if raw is None:
            print("perfbench: the workload driver failed", file=sys.stderr)
            return 1
        setups.append(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = raw["samples"]
    failures += raw["warmup_failures"]
    failures += [s["reason"] for s in samples if not s["ok"]]
    attempted = len(samples) + len(raw["warmup_failures"]) + cold_attempts
    failed = len(failures)
    host = hostprobe.host_record(probe, raw["numpy"], raw["numba"])
    if trace:
        values = per_layer(raw, imports, probe, host["nproc"], failed / attempted)
        units = PER_LAYER
    else:
        values = end_to_end(raw, setups, colds, launches)
        wall_values = end_to_end(raw, setups, colds, launches, normalize=False)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} ops in {raw['cycles']} cycles, {failed} failed of {attempted}")
    print(f"host: nproc={host['nproc']} cpu_count={host['cpu_count']} "
          f"effective_parallelism={probe['median']:.3f} "
          f"(min {probe['min']:.3f}, max {probe['max']:.3f}, {len(probe['ratios'])} probes) "
          f"python={host['python']} numpy={host['numpy']} numba={host['numba']}")
    if trace:
        print("note: procs workers and MPI ranks are separate processes; their "
              "insides are measured only through ProcPool.run_region, mpi_run "
              "and the RunResult counters")
    for reason in failures[:10]:
        print(f"failure: {reason}")
    for name, m in metrics.items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        if not trace:
            line += f"  (unscaled wall: {wall_values[name]:.6g})"
        print(line)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "metrics": metrics,
        "ops": len(samples), "first_cycle": raw["first_cycle"],
        "digests": raw["digests"], "failures": failures,
        "unscaled": None if trace else wall_values,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
