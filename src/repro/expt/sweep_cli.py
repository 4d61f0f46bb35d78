"""``python -m repro.expt``: run a parameter sweep from the shell.

The expTools grid, without writing a script::

    python -m repro.expt --kernel mandel --variant omp_tiled \\
        --size 256 --grain 16,32 --iterations 10 \\
        --threads 2,4,8 --schedule static --schedule dynamic,2 \\
        --runs 3 --workers 4 --resume --csv perf_data.csv

Comma-separated (or repeated) values sweep a dimension; ``--schedule``
is repeat-only because schedule specs contain commas (``dynamic,2``).
``--workers``, ``--resume``, ``--timeout``/``--retries`` and
``--cache-dir`` expose the parallel runner's fault-tolerance knobs
(see :func:`repro.expt.exptools.execute`).

``--executor`` picks where points run (serial, local-procs, socket).
A distributed sweep is the same grid with a socket master::

    python -m repro.expt ... --executor socket --bind 0.0.0.0:7777

plus any number of workers, on any hosts::

    python -m repro.expt worker --connect master-host:7777

A worker exits 0 when the master sends NO_MORE_JOBS — or when no
master is reachable, so late workers after a finished sweep are
harmless.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import EasypapError
from repro.expt.executors import EXECUTOR_NAMES, make_executor
from repro.expt.exptools import DEFAULT_CSV, execute

__all__ = ["build_sweep_parser", "build_worker_parser", "main"]


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_sweep_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.expt",
        description="expTools parameter sweep: the cartesian product of all "
        "swept dimensions, run in parallel, appended to a results CSV.  "
        "('python -m repro.expt worker --connect HOST:PORT' starts a "
        "distributed sweep worker instead.)",
    )
    grid = p.add_argument_group("swept dimensions (comma-separated or repeated)")
    grid.add_argument("-k", "--kernel", action="append", default=None,
                      metavar="NAME[,NAME...]")
    grid.add_argument("-v", "--variant", action="append", default=None,
                      metavar="NAME[,NAME...]")
    grid.add_argument("-s", "--size", action="append", default=None,
                      metavar="DIM[,DIM...]")
    grid.add_argument("-g", "--grain", action="append", default=None,
                      metavar="G[,G...]")
    grid.add_argument("-i", "--iterations", action="append", default=None,
                      metavar="N[,N...]")
    grid.add_argument("-a", "--arg", action="append", default=None,
                      metavar="V[,V...]", help="kernel-specific parameter")
    grid.add_argument("--threads", action="append", default=None,
                      metavar="N[,N...]", help="OMP_NUM_THREADS values")
    grid.add_argument("--schedule", action="append", default=None, metavar="SPEC",
                      help="OMP_SCHEDULE value (repeat the flag per spec; specs "
                      "like 'dynamic,2' contain commas)")
    grid.add_argument("--backend", action="append", default=None,
                      metavar="NAME[,NAME...]",
                      help="execution backend(s) to sweep (sim, threads, procs)")
    grid.add_argument("--domain", action="append", default=None,
                      metavar="KIND[,KIND...]",
                      help="work domain(s) to sweep (grid, wavefront, "
                      "quadtree, slab3d); rows record the domain column")

    runner = p.add_argument_group("runner")
    runner.add_argument("-r", "--runs", type=int, default=1,
                        help="repetitions per configuration")
    runner.add_argument("-w", "--workers", type=int, default=1,
                        help="worker processes (1 = serial)")
    runner.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                        help="where points run (default: serial for "
                        "--workers 1, local-procs otherwise)")
    runner.add_argument("--bind", default=None, metavar="HOST:PORT",
                        help="socket executor: master listen address "
                        "(default 127.0.0.1:0 = ephemeral port, printed "
                        "unless --quiet)")
    runner.add_argument("--lease-timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="requeue a dispatched job whose worker goes "
                        "silent this long")
    runner.add_argument("--max-requeues", type=int, default=2, metavar="N",
                        help="dispatch attempts per job after worker deaths "
                        "before recording status=error")
    runner.add_argument("--resume", action="store_true",
                        help="skip points already recorded in the CSV")
    runner.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-run wall-clock budget")
    runner.add_argument("--retries", type=int, default=0,
                        help="attempts per point before recording status=error")
    runner.add_argument("--reuse-work", action="store_true",
                        help="capture work profiles once, re-simulate per config")
    runner.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist work profiles here (default: "
                        "$REPRO_WORK_CACHE, unset = in-memory only)")
    runner.add_argument("--csv", default=DEFAULT_CSV, metavar="PATH",
                        help=f"results database (default: {DEFAULT_CSV})")
    runner.add_argument("--machine", default="virtual",
                        help="machine label for CSV rows")
    runner.add_argument("-q", "--quiet", action="store_true",
                        help="no per-point progress lines")
    return p


def build_worker_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.expt worker",
        description="Distributed sweep worker: pulls jobs from a socket "
        "master, pushes result rows back, exits on NO_MORE_JOBS.",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the master's address (--bind on the sweep side)")
    p.add_argument("--heartbeat", type=float, default=5.0, metavar="SECONDS",
                   help="idle liveness ping interval while parked")
    p.add_argument("--connect-wait", type=float, default=10.0, metavar="SECONDS",
                   help="keep retrying the connection this long (workers may "
                   "start before the master binds)")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="no per-job progress lines")
    return p


def _grid(args: argparse.Namespace) -> tuple[dict, dict]:
    """The (easypap_options, omp_icv) dicts of the requested sweep."""
    options: dict[str, list] = {}
    flag_of = {
        "kernel": "--kernel ",
        "variant": "--variant ",
        "size": "--size ",
        "grain": "--grain ",
        "iterations": "--iterations ",
        "arg": "--arg ",
        "backend": "--backend ",
        "domain": "--domain ",
    }
    for attr, flag in flag_of.items():
        occurrences = getattr(args, attr)
        if occurrences is None:
            continue
        values: list[str] = []
        for occurrence in occurrences:
            values.extend(_csv_list(occurrence))
        if values:
            options[flag] = values
    icvs: dict[str, list] = {}
    if args.threads:
        threads: list[str] = []
        for occurrence in args.threads:
            threads.extend(_csv_list(occurrence))
        icvs["OMP_NUM_THREADS="] = threads
    if args.schedule:
        icvs["OMP_SCHEDULE="] = list(args.schedule)
    return options, icvs


def _worker_main(argv: list[str]) -> int:
    from repro.expt.executors.socketexec import parse_address, run_worker

    args = build_worker_parser().parse_args(argv)
    try:
        host, port = parse_address(args.connect)
    except EasypapError as exc:
        print(f"repro.expt worker: {exc}", file=sys.stderr)
        return 2
    return run_worker(
        host, port,
        heartbeat=args.heartbeat,
        connect_wait=args.connect_wait,
        verbose=not args.quiet,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    args = build_sweep_parser().parse_args(argv)
    options, icvs = _grid(args)
    try:
        executor = args.executor
        if executor is not None or args.bind is not None or args.workers > 1:
            executor = make_executor(
                executor or ("socket" if args.bind else "local-procs"),
                workers=args.workers,
                bind=args.bind,
                lease_timeout=args.lease_timeout,
                max_requeues=args.max_requeues,
                verbose=not args.quiet,
            )
        rows = execute(
            "easypap",
            icvs,
            options,
            runs=args.runs,
            csv_path=args.csv,
            machine=args.machine,
            reuse_work=args.reuse_work,
            verbose=not args.quiet,
            workers=args.workers,
            resume=args.resume,
            timeout=args.timeout,
            retries=args.retries,
            cache_dir=args.cache_dir,
            executor=executor,
        )
    except EasypapError as exc:
        print(f"repro.expt: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for r in rows if r["status"] == "error")
    print(f"{len(rows)} points recorded to {args.csv}"
          + (f" ({failed} failed)" if failed else ""))
    return 1 if failed == len(rows) and rows else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
