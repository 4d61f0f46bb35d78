"""expTools: experiment automation (paper Fig. 5).

Students customize a python script specifying parameter ranges::

    from repro.expt.exptools import *

    easypap_options["--kernel "] = ["mandel"]
    easypap_options["--iterations "] = [10]
    easypap_options["--variant "] = ["omp_tiled"]
    easypap_options["--grain "] = [16, 32]
    omp_icv["OMP_NUM_THREADS="] = list(range(2, 13, 2))
    omp_icv["OMP_SCHEDULE="] = ["static", "guided", "dynamic,2",
                                "nonmonotonic:dynamic"]
    execute('easypap', omp_icv, easypap_options, runs=10)

``execute`` runs the full cartesian product (in-process — the kernels
and the CLI parser are the same ones the ``easypap`` command uses) and
appends one CSV row per run, with every parameter recorded, ready for
``easyplot``.

Large sweeps are a first-class workload, not a for-loop.  *Where* the
grid runs is a pluggable :class:`~repro.expt.executors.Executor`:

* ``executor="serial"`` (default for ``workers=1``) runs points inline;
* ``executor="local-procs"`` (default for ``workers=N``) is the socket
  master below, with ``workers`` forked localhost worker processes;
* ``executor="socket"`` starts a TCP master; ``python -m repro.expt
  worker --connect host:port`` processes — on this host or across a
  cluster — pull jobs and push result rows back.

Whatever the executor, results stream into the CSV **as they finish**,
so a killed sweep keeps every completed point, and:

* ``resume=True`` skips points already recorded in the CSV (keyed by
  the parameter columns of ``RunConfig.csv_row()`` — ``machine``
  included — plus the ``run`` index) — re-invoking a crashed or
  extended sweep only runs what is missing.  The identity leaves out
  measurements and provenance (the column roles of
  :data:`repro.expt.csvdb.COLUMN_ROLES`), so a sweep interrupted
  under one executor resumes under any other.  Rows recorded with
  ``status=error`` are retried.
* ``timeout=``/``retries=`` bound each point: a failing or overrunning
  run becomes a ``status=error`` row instead of aborting the sweep.
  Local-procs and socket add lease-based requeues on top: a point
  whose worker dies is re-dispatched (boundedly) to another worker.
* ``reuse_work=True`` computes per-tile work once per (kernel, size,
  grain, iterations) and re-simulates the scheduling for each
  configuration — hundreds of configurations in seconds, with results
  identical to full runs (work is deterministic).  With ``cache_dir=``
  (or ``$REPRO_WORK_CACHE``) the captured profiles persist on disk and
  are shared across workers *and* across invocations.  On top of the
  profiles sits the schedule-result memo: the replayed time of each
  fully-specified point is remembered too, so repeated and resumed
  points skip even the re-simulation — every row records ``memo``
  (hit/miss) and the sweep summary tallies ``memo_hits``/
  ``memo_misses``.

The execution backend is sweepable like any other dimension
(``easypap_options["--backend "] = ["sim", "threads", "procs"]``; the
CSV records it per row).  A ``procs`` point spawns its persistent
worker team once per sweep process and reuses it across every
subsequent ``procs`` or MPI point of matching width, so the spawn cost
is paid once, not per point — leave ``reuse_work`` off for real backends,
whose wall-clock times must come from actual execution.
"""

from __future__ import annotations

import functools
import os
import shlex
import time
from itertools import product
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.cli import build_parser, config_from_args, parse_args_strict
from repro.core.config import RunConfig
from repro.errors import ConfigError
from repro.expt.csvdb import append_rows, read_header, read_rows
from repro.expt.executors import make_executor
from repro.expt.executors.base import Executor, RunOptions, SweepJob, SweepTimeout

__all__ = [
    "execute",
    "sweep_configs",
    "sweep_points",
    "completed_points",
    "easypap_options",
    "omp_icv",
    "DEFAULT_CSV",
    "SweepTimeout",
]

DEFAULT_CSV = "perf_data.csv"

#: module-level dicts so student scripts can mirror the paper verbatim
easypap_options: dict[str, list] = {}
omp_icv: dict[str, list] = {}

#: every parameter column of a results row, with the value an absent or
#: empty cell of an older CSV stands for: ``RunConfig()``'s default
_PARAMETER_DEFAULTS = {k: str(v) for k, v in RunConfig().csv_row().items()}


def _combinations(spec: Mapping[str, Sequence]) -> list[dict[str, Any]]:
    keys = list(spec)
    out = []
    for values in product(*(spec[k] for k in keys)):
        out.append(dict(zip(keys, values)))
    return out


def _argv_of(options: Mapping[str, Any]) -> list[str]:
    """Turn {"--grain ": 16, ...} into an argv list (tolerates the
    trailing-space style of the paper's script)."""
    argv: list[str] = []
    for flag, value in options.items():
        argv.extend(shlex.split(flag.strip()))
        if value is not None and value != "":
            argv.append(str(value))
    return argv


def _env_of(icvs: Mapping[str, Any]) -> dict[str, str]:
    """Turn {"OMP_NUM_THREADS=": 4, ...} into an environment dict."""
    env = {}
    for key, value in icvs.items():
        env[key.rstrip("=").strip()] = str(value)
    return env


#: the easypap parser, built once: parsing never changes it
_parser = functools.cache(build_parser)


def sweep_configs(
    icvs: Mapping[str, Sequence] | None = None,
    options: Mapping[str, Sequence] | None = None,
) -> list[tuple[RunConfig, dict[str, str]]]:
    """All (RunConfig, env) pairs of the sweep's cartesian product.

    Malformed options raise :class:`ConfigError` (never ``SystemExit``:
    a typo in a sweep script must not kill the interpreter mid-sweep).
    """
    configs = []
    for opt_combo in _combinations(options or {}):
        # the argv depends on the options only: parse it once per combination
        args = parse_args_strict(_argv_of(opt_combo), _parser())
        for icv_combo in _combinations(icvs or {}):
            env = _env_of(icv_combo)
            configs.append((config_from_args(args, env=env), env))
    return configs


# -- point identity (resume) --------------------------------------------------

def point_key(row: Mapping[str, Any]) -> tuple[str, ...]:
    """Canonical identity of a sweep point from a CSV row or row dict:
    its parameter columns (those of ``RunConfig.csv_row()``) plus the
    ``run`` index.

    Cells are compared as strings, so a typed read (``4``) and a config
    value (``"4"``) key identically; resume reads the cells untyped,
    since a spelling such as ``1e2`` does not survive typing.  A
    parameter an older CSV never recorded (or left empty) keys as
    ``RunConfig()``'s default, so resuming a legacy sweep keeps
    recognizing its completed points.
    """
    key = [str(row.get(c, "")) or default for c, default in _PARAMETER_DEFAULTS.items()]
    key.append(str(row.get("run", "")))
    return tuple(key)


def sweep_points(
    icvs: Mapping[str, Sequence] | None = None,
    options: Mapping[str, Sequence] | None = None,
    runs: int = 1,
) -> list[tuple[RunConfig, int]]:
    """The full (configuration, repetition) grid of a sweep."""
    return [
        (config, rep)
        for config, _env in sweep_configs(icvs, options)
        for rep in range(runs)
    ]


def completed_points(csv_path: str | os.PathLike) -> set[tuple[str, ...]]:
    """Identity keys of the points already recorded in ``csv_path``.

    ``status=error`` rows do not count (they are retried on resume);
    in files written with a ``status`` column, neither do truncated
    rows whose status cell never made it to disk.  Legacy files
    without the column count every row.
    """
    p = Path(csv_path)
    if not p.exists():
        return set()
    header = read_header(p)
    if header is None:
        return set()
    has_status = "status" in header
    done = set()
    for r in read_rows(p, typed=False):
        status = r.get("status", "")
        if has_status and status != "ok":
            continue
        done.add(point_key(r))
    return done


# -- the driver ---------------------------------------------------------------

def _resolve_executor(
    executor: str | Executor | None, workers: int, n_jobs: int, verbose: bool,
) -> Executor:
    """Pick the executor: an instance is used as-is, a name is built
    with defaults, None keeps the historical ``workers=`` behavior."""
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        executor = "serial" if workers == 1 or n_jobs <= 1 else "local-procs"
    if not isinstance(executor, str):
        raise ConfigError(f"executor must be a name or an Executor, got {executor!r}")
    return make_executor(executor, workers=workers, verbose=verbose)


def execute(
    prog: str = "easypap",
    icvs: Mapping[str, Sequence] | None = None,
    options: Mapping[str, Sequence] | None = None,
    runs: int = 1,
    *,
    csv_path: str | Path = DEFAULT_CSV,
    machine: str = "virtual",
    reuse_work: bool = False,
    verbose: bool = False,
    workers: int = 1,
    resume: bool = False,
    timeout: float | None = None,
    retries: int = 0,
    cache_dir: str | os.PathLike | None = None,
    executor: str | Executor | None = None,
) -> list[dict]:
    """Run the sweep; returns (and appends to ``csv_path``) the new rows.

    ``prog`` is accepted for fidelity with the paper's script; only
    'easypap' is meaningful.  With ``resume=True`` the returned list
    holds only the points actually (re-)run this invocation; skipped
    points stay untouched in the CSV.  ``executor`` selects where
    points run — a name from ``EXECUTOR_NAMES`` or a configured
    :class:`~repro.expt.executors.Executor` instance (e.g. a
    ``SocketExecutor`` whose address workers were already pointed at);
    by default ``workers=1`` runs serially and ``workers=N`` uses
    local-procs.
    """
    if prog not in ("easypap", "./run", "run"):
        raise ConfigError(f"unknown program {prog!r} (expected 'easypap')")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    icvs = icvs if icvs is not None else omp_icv
    options = options if options is not None else easypap_options
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_WORK_CACHE") or None

    grid = sweep_points(icvs, options, runs)
    total = len(grid)
    if resume:
        done = completed_points(csv_path)
        grid = [
            (config, rep)
            for config, rep in grid
            if point_key({**config.csv_row(machine), "run": rep}) not in done
        ]
        if verbose and len(grid) < total:
            print(f"resume: {total - len(grid)}/{total} points already recorded")

    jobs = [SweepJob(i, config, rep) for i, (config, rep) in enumerate(grid)]
    exec_obj = _resolve_executor(executor, workers, len(jobs), verbose)
    exec_obj.configure(RunOptions(
        machine=machine,
        timeout=timeout,
        retries=retries,
        reuse_work=reuse_work,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
    ))

    rows: list[dict] = []
    started = time.perf_counter()

    def record(row: dict) -> None:
        append_rows(csv_path, [row])
        rows.append(row)
        # schedule-result memo telemetry: each row says whether the
        # memo served it; the executor counters aggregate the tally
        # (works across executors — serial, local and remote workers)
        memo = row.get("memo", "")
        if memo == "hit":
            exec_obj.counters["memo_hits"] = exec_obj.counters.get("memo_hits", 0) + 1
        elif memo == "miss":
            exec_obj.counters["memo_misses"] = (
                exec_obj.counters.get("memo_misses", 0) + 1
            )
        if verbose:
            shown = (
                f"time={row['time_us']}us" if row["status"] == "ok"
                else f"error: {row['error']}"
            )
            print(
                f"[{len(rows)}/{len(jobs)}] kernel={row['kernel']} "
                f"threads={row['threads']} schedule={row['schedule']} "
                f"run={row['run']} {shown}"
            )

    try:
        for job in jobs:
            exec_obj.submit(job)
        for row in exec_obj.drain():
            record(row)
    finally:
        exec_obj.close()

    if verbose:
        wall = time.perf_counter() - started
        fabric = ", ".join(
            f"{k}={v}" for k, v in exec_obj.counters.items() if v
        )
        print(f"sweep: {len(rows)} points in {wall:.2f}s "
              f"(executor={exec_obj.name}"
              + (f", {fabric}" if fabric else "") + ")")
    return rows
