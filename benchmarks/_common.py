"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark prints the rows/series of the paper artifact it
regenerates and also writes them to ``benchmarks/out/<name>.txt`` so the
results survive pytest's output capture; EXPERIMENTS.md records the
paper-claim vs measured comparison based on these outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"


def repo_path(path: Path) -> str:
    """``path`` relative to the repository root, for reports that must
    read the same on every checkout."""
    return Path(path).resolve().relative_to(OUT_DIR.resolve().parents[1]).as_posix()


def report(name: str, text: str) -> Path:
    """Print a benchmark report and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n===== {name} =====")
    print(text)
    return path


def gate_skip_reason(measured: dict, needs_cpus: int = 2) -> str | None:
    """Hardware guard shared by the perf-gate benchmarks.

    Returns ``None`` when the absolute gate should be enforced on this
    measurement, else a human-readable reason it cannot be: the payload
    was recorded on a host with fewer than ``needs_cpus`` CPUs (its
    ``cpu_count`` field).  Callers apply this to the measured payload
    (skip the absolute gate) *and* to the committed baseline (skip the
    regression-ratio comparison — a baseline that could not exhibit the
    gated behaviour must never gate a host that can).
    """
    cpus = int(measured.get("cpu_count", 1))
    if cpus < needs_cpus:
        return f"host has {cpus} CPU(s); the gate needs >= {needs_cpus}"
    return None


def perf_gate_main(argv, *, name: str, description: str, measure, render, check,
                   reps: tuple[int, int], tolerance: float, tolerance_help: str,
                   ok: str, cleanup=None) -> int:
    """The command line every perf-gate script shares.

    Measures ``reps`` paired reps (default, ``--quick``; ``--reps``
    overrides), runs ``cleanup`` after, reports under ``name``, writes
    the payload to ``--out`` and, with ``--check BASELINE``, prints the
    failures ``check(payload, baseline, tolerance)`` returns and exits 1,
    or prints ``ok`` formatted with ``check`` and ``tolerance``.
    """
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--quick", action="store_true", help="fewer reps (CI smoke)")
    ap.add_argument("--reps", type=int, default=None,
                    help=f"paired reps; default {reps[0]}, {reps[1]} with --quick")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the measured baseline JSON here")
    ap.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                    help="compare against a committed baseline; exit 1 on regression")
    ap.add_argument("--tolerance", type=float, default=tolerance, help=tolerance_help)
    args = ap.parse_args(argv)

    try:
        payload = measure(args.reps if args.reps is not None
                          else reps[1] if args.quick else reps[0])
    finally:
        if cleanup is not None:
            cleanup()
    report(name, render(payload))

    if args.out:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.out}")
    if args.check:
        failures = check(payload, args.check, args.tolerance)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print(ok.format(check=args.check, tolerance=args.tolerance))
    return 0


def fmt_table(headers: list[str], rows: list[list]) -> str:
    """Minimal fixed-width table formatter."""
    cols = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)]
    def line(cells):
        return " | ".join(f"{str(c):>{w}}" for c, w in zip(cells, cols))
    sep = "-+-".join("-" * w for w in cols)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])
