"""The ``easypap`` command-line interface.

Mirrors the paper's invocations::

    easypap --kernel mandel --variant seq --size 2048
    easypap --kernel mandel --variant omp_tiled --tile-size 16 --monitoring
    easypap --kernel mandel --variant omp_tiled --tile-size 16 \
            --iterations 50 --no-display
    easypap --kernel life --variant mpi_omp --mpirun "-np 2" \
            --monitoring --debug M

Performance mode prints ``N iterations completed in X ms`` and can
append the run (with its full configuration) to a CSV consumed by
``easyplot`` — the workflow of paper Figs. 5–6.

Display being file-based here, ``--display`` dumps a PPM frame per
iteration into ``--output-dir``; ``--monitoring`` additionally prints
the terminal versions of the Tiling and Activity windows.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from repro.core.config import BACKENDS, DOMAINS, MPI_BACKENDS, RunConfig
from repro.core.engine import run
from repro.core.kernel import get_kernel, list_kernels, load_kernel_module
from repro.errors import ConfigError, EasypapError
from repro.omp.icv import resolve_icvs

__all__ = ["build_parser", "parse_args", "parse_args_strict", "config_from_args", "main"]

#: options whose value legitimately starts with a dash (argparse would
#: otherwise mistake "-np 2" for an option)
_DASH_VALUE_FLAGS = ("--mpirun",)


def _preprocess_argv(argv: list[str]) -> list[str]:
    """Fold ``--mpirun -np 2`` into ``--mpirun=-np 2`` so argparse accepts
    the paper's invocation style."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def parse_args(argv: list[str] | None = None):
    """Parse an easypap command line (with dash-value folding)."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _preprocess_argv(list(argv))
    return build_parser().parse_args(argv)


def parse_args_strict(
    argv: list[str], parser: argparse.ArgumentParser | None = None
) -> argparse.Namespace:
    """Parse an easypap command line without ever exiting the process.

    ``argparse`` reports errors by printing usage and raising
    ``SystemExit`` — fatal for library callers (an option typo in a
    student's expTools script would kill the interpreter mid-sweep).
    This wrapper converts any parser exit into a :class:`ConfigError`
    carrying argparse's own message.
    """
    parser = parser if parser is not None else build_parser()
    buf = io.StringIO()
    try:
        with redirect_stderr(buf), redirect_stdout(buf):
            return parser.parse_args(_preprocess_argv(list(argv)))
    except SystemExit:
        lines = [ln for ln in buf.getvalue().strip().splitlines() if ln]
        detail = lines[-1] if lines else "invalid arguments"
        raise ConfigError(f"bad easypap arguments {argv!r}: {detail}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="easypap",
        description="EASYPAP (Python reproduction): run 2D kernels under "
        "interchangeable parallel variants with monitoring and tracing.",
    )
    p.add_argument("-k", "--kernel", default="none", help="kernel name (see --list-kernels)")
    p.add_argument("-v", "--variant", default="seq", help="variant name (see --list-variants)")
    p.add_argument("-s", "--size", type=int, default=None, metavar="DIM", help="image side length")
    p.add_argument("-sy", "--size-y", type=int, default=None, metavar="DIM",
                   help="image height (defaults to --size: square)")
    p.add_argument("--depth", type=int, default=None, metavar="DIM",
                   help="volume depth (domain slab3d; defaults to --size)")
    p.add_argument("--domain", choices=DOMAINS, default=None,
                   help="work domain: grid (default), wavefront (task DAG), "
                   "quadtree (adaptive tiling), slab3d (3D slabs)")
    p.add_argument("-ts", "--tile-size", type=int, default=None, help="square tile side")
    p.add_argument("-g", "--grain", type=int, default=None, help="alias for --tile-size")
    p.add_argument("-tw", "--tile-width", type=int, default=None)
    p.add_argument("-th", "--tile-height", type=int, default=None)
    p.add_argument("-i", "--iterations", type=int, default=1)
    p.add_argument("-a", "--arg", default=None, help="kernel-specific parameter")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-n", "--no-display", action="store_true", help="performance mode (default)")
    p.add_argument("--display", action="store_true", help="dump one PPM frame per iteration")
    p.add_argument("-m", "--monitoring", action="store_true",
                   help="record + print monitoring windows")
    p.add_argument("-t", "--trace", action="store_true", help="record an execution trace (.evt)")
    p.add_argument("--trace-file", default=None, help="trace output path")
    p.add_argument("--mpirun", default=None, metavar="ARGS", help='e.g. "-np 2"')
    p.add_argument("--mpi-backend", choices=MPI_BACKENDS, default="procs",
                   help="MPI rank substrate: procs = real processes over "
                   "shared-memory lanes (GIL-free, wall-clock honest); "
                   "inproc = threads in one interpreter (deterministic)")
    p.add_argument("-d", "--debug", default="", help="debug flag letters (M: monitor all ranks)")
    p.add_argument("--nb-threads", type=int, default=None, help="overrides OMP_NUM_THREADS")
    p.add_argument("--schedule", default=None, help="overrides OMP_SCHEDULE")
    p.add_argument("--backend", choices=BACKENDS, default="sim",
                   help="sim: virtual time; threads: real threads (wall clock); "
                   "procs: shared-memory process pool (wall clock, true "
                   "parallelism for pure-Python tile bodies)")
    p.add_argument("--time-scale", type=float, default=1.0, help="cost-model scaling factor")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="relative sigma of simulated system noise (0 = deterministic)")
    p.add_argument("--run-index", type=int, default=0,
                   help="repetition number (seeds the noise stream)")
    p.add_argument("--no-fastpath", action="store_true",
                   help="force the per-tile reference path even in perf mode "
                   "(the whole-frame fast path is bit-identical; this flag "
                   "exists for benchmarking and differential testing)")
    p.add_argument("--csv", default=None, metavar="PATH", help="append the perf row to a CSV")
    p.add_argument("--machine", default="virtual", help="machine label for CSV rows")
    p.add_argument("--dump", action="store_true", help="save the final image as PPM")
    p.add_argument("--check", action="store_true",
                   help="run the seq variant too and compare final images")
    p.add_argument("--dashboard", default=None, metavar="SVG",
                   help="write the monitoring dashboard (needs --monitoring)")
    p.add_argument("--anim", default=None, metavar="SVG",
                   help="write the animated tiling window (needs --monitoring)")
    p.add_argument("-o", "--output-dir", default="dump", help="directory for dumps/frames")
    p.add_argument("-lk", "--list-kernels", action="store_true")
    p.add_argument("-lv", "--list-variants", action="store_true")
    p.add_argument("--label", default="cur", help="trace label (cur/prev, Fig. 10 comparisons)")
    p.add_argument("--load", action="append", default=[], metavar="FILE",
                   help="Python file registering extra kernels (repeatable)")
    p.add_argument("--check-races", action="store_true",
                   help="one verdict for the variant: the static proof first "
                   "(a proven race exits 1 without running the kernel), then "
                   "a traced run checked for races, tile partition, "
                   "double-buffer discipline and the static envelope; exit 1 "
                   "on any error")
    return p


def config_from_args(args: argparse.Namespace, env: dict | None = None) -> RunConfig:
    """Build a :class:`RunConfig` from parsed arguments + ICVs.

    ``env`` substitutes the process environment (hermetic use by
    expTools and tests).
    """
    icvs = resolve_icvs(env, num_threads=args.nb_threads, schedule=args.schedule)
    dim = args.size if args.size is not None else RunConfig.dim
    tile = args.tile_size if args.tile_size is not None else args.grain
    tile_w = args.tile_width if args.tile_width is not None else tile
    tile_h = args.tile_height if args.tile_height is not None else tile
    # EASYPAP default: 32x32 tiles, clipped to the image
    if tile_w is None:
        tile_w = min(RunConfig.tile_w, dim)
    if tile_h is None:
        tile_h = min(RunConfig.tile_h, dim)
    mpi_np = 0
    if args.mpirun:
        from repro.mpi.launcher import parse_mpirun_args

        mpi_np = parse_mpirun_args(args.mpirun)
    domain = getattr(args, "domain", None)
    if domain is None:
        # resolve the kernel's declared domain *before* validation, so
        # geometry knobs (--depth, square wavefront blocks) are checked
        # against the domain the run will actually use
        try:
            domain = get_kernel(args.kernel).domain_for(args.variant)
        except EasypapError:
            domain = "grid"  # unknown kernel: let the run path report it
    return RunConfig(
        kernel=args.kernel,
        variant=args.variant,
        dim=dim,
        tile_w=tile_w,
        tile_h=tile_h,
        iterations=args.iterations,
        nthreads=icvs.num_threads,
        schedule=icvs.schedule.spec(),
        backend=args.backend,
        monitoring=args.monitoring,
        trace=args.trace,
        trace_label=args.label,
        display=args.display and not args.no_display,
        arg=args.arg,
        seed=args.seed,
        mpi_np=mpi_np,
        mpi_backend=getattr(args, "mpi_backend", "procs"),
        debug=args.debug,
        time_scale=args.time_scale,
        jitter=args.jitter,
        run_index=args.run_index,
        fastpath="off" if getattr(args, "no_fastpath", False) else "auto",
        domain=domain,
        dim_y=getattr(args, "size_y", None) or 0,
        dim_z=getattr(args, "depth", None) or 0,
    )


def _run_analysis(config, result, static_report) -> int:
    """The ``--check-races`` verdict over a finished run."""
    from repro.analyze import lint_results

    results = [
        r for r in (result.rank_results or [result]) if r.trace is not None
    ]
    lr = lint_results(
        get_kernel(config.kernel), config.variant, results,
        mpi_np=config.mpi_np, static=static_report,
    )
    print(lr.describe())
    return 1 if lr.errors else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        for path in args.load:
            load_kernel_module(path)
    except EasypapError as exc:
        print(f"easypap: {exc}", file=sys.stderr)
        return 2
    if args.list_kernels:
        print("\n".join(list_kernels()))
        return 0
    if args.list_variants:
        try:
            kernel = get_kernel(args.kernel)
        except EasypapError as exc:
            print(f"easypap: {exc}", file=sys.stderr)
            return 1
        print("\n".join(kernel.variant_names()))
        return 0
    try:
        config = config_from_args(args)
    except EasypapError as exc:
        print(f"easypap: {exc}", file=sys.stderr)
        return 2

    static_report = None
    if args.check_races:
        from repro.staticcheck import check_variant

        try:
            static_report = check_variant(get_kernel(config.kernel), config.variant)
        except EasypapError as exc:
            print(f"easypap: {exc}", file=sys.stderr)
            return 2
        if static_report.verdict == "race":
            print(static_report.describe())
            print(
                "easypap: static race verdict — the kernel was not executed",
                file=sys.stderr,
            )
            return 1
        # the dynamic half needs every rank traced with footprints attached
        debug = config.debug
        if config.mpi_np and "M" not in debug:
            debug += "M"
        try:
            config = config.with_(trace=True, footprints=True, debug=debug)
        except EasypapError as exc:
            print(f"easypap: {exc}", file=sys.stderr)
            return 2

    frame_hook = None
    if config.display:
        outdir = Path(args.output_dir)

        def frame_hook(ctx, iteration):  # noqa: F811 - deliberate rebind
            from repro.view.ppm import save_ppm

            # kernels with internal state must refresh the image first
            get_kernel(config.kernel).refresh_img(ctx)
            save_ppm(ctx.img.cur, outdir / f"{config.kernel}-{iteration:04d}.ppm")

    try:
        result = run(config, frame_hook=frame_hook)
    except EasypapError as exc:
        print(f"easypap: {exc}", file=sys.stderr)
        return 1

    print(result.summary())
    if result.early_stop:
        print(f"stabilized at iteration {result.early_stop}")

    # races make the run fail (exit 1) but only after the remaining
    # outputs (trace, dumps, CSV) are produced — the trace is what
    # easyview --races replays
    analysis_status = 0
    if static_report is not None:
        result.counters["staticcheck_ms"] = round(static_report.elapsed_ms, 3)
        analysis_status = _run_analysis(config, result, static_report)

    if args.check and config.variant != "seq":
        # students' safety net: replay the run with the reference variant
        # and diff the pixels
        import numpy as np

        ref_cfg = config.with_(variant="seq", mpi_np=0, monitoring=False,
                               trace=False)
        ref = run(ref_cfg)
        if np.array_equal(ref.image, result.image):
            print("check: OK (identical to the seq variant)")
        else:
            bad = int((ref.image != result.image).sum())
            print(f"check: FAILED ({bad} differing pixels vs the seq variant)",
                  file=sys.stderr)
            return 1

    if args.monitoring and result.monitor and result.monitor.records:
        from repro.view.ascii import render_activity, render_idleness_history, render_tiling

        rec = result.monitor.records[-1]
        print("\n-- Tiling window (last iteration) --")
        print(render_tiling(rec.tiling, rec.stolen))
        print("\n-- Activity Monitor --")
        print(render_activity(rec))
        print(render_idleness_history(result.monitor.idleness_history))

    if args.dashboard and result.monitor and result.monitor.records:
        from repro.view.dashboard import dashboard_svg

        path = dashboard_svg(result.monitor).save(args.dashboard)
        print(f"dashboard written to {path}")
    if args.anim and result.monitor and result.monitor.records:
        from repro.view.dashboard import animated_tiling_svg

        path = animated_tiling_svg(result.monitor).save(args.anim)
        print(f"animated tiling window written to {path}")

    if args.trace and result.trace is not None:
        from repro.trace.format import default_trace_path, save_trace

        path = Path(args.trace_file) if args.trace_file else default_trace_path(
            label=args.label
        )
        save_trace(result.trace, path)
        print(f"trace written to {path}")

    if args.dump:
        from repro.view.ppm import save_ppm

        path = save_ppm(result.image, Path(args.output_dir) / f"{config.kernel}.ppm")
        print(f"image dumped to {path}")

    if args.csv:
        from repro.expt.csvdb import append_rows

        row = dict(config.csv_row())
        row["machine"] = args.machine
        row["time_us"] = round(result.elapsed * 1e6, 3)
        row["run"] = 0
        append_rows(args.csv, [row])
    return analysis_status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
