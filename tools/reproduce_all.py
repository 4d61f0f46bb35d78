#!/usr/bin/env python3
"""Reproduce every paper artifact in one command.

Runs the full benchmark suite (each benchmark regenerates one figure of
the paper and asserts its shape claims), then assembles the per-figure
reports from ``benchmarks/out/`` into a single markdown document.

Usage:
    python tools/reproduce_all.py [-o REPORT.md]

Exit status is pytest's: non-zero when any reproduction claim failed.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"

#: presentation order: paper figures first, then ablations/extensions
SECTIONS = [
    ("FIG3 — monitoring windows (static imbalance)", "fig03_monitoring"),
    ("FIG4 — scheduling policies in the tiling window", "fig04_schedules"),
    ("PERF — performance mode", "perfmode"),
    ("FIG5 — expTools sweep", "fig05_exptools"),
    ("FIG6 — speedup graphs", "fig06_speedup"),
    ("FIG7 — EASYVIEW exploration", "fig07_easyview"),
    ("FIG8 — dynamic patterns", "fig08_patterns"),
    ("FIG9 — heat maps", "fig09_heatmap"),
    ("FIG10 — blur trace comparison", "fig10_blur_compare"),
    ("FIG11/12 — task-dependency wave", "fig12_taskwave"),
    ("FIG13 — MPI lazy Game of Life", "fig13_mpi_life"),
    ("ABL1 — dispatch overhead vs granularity", "abl_overhead"),
    ("ABL2 — stealing granularity", "abl_stealing"),
    ("EXT1 — per-task cache counters", "ext_cache"),
    ("EXT2 — OpenCL-style device profiling", "ext_gpu"),
    ("WAVEFRONT — dependency-aware scheduling on blocked LU", "wavefront_domains"),
]


def run_benchmarks() -> int:
    cmd = [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only", "-q"]
    print("$", " ".join(cmd))
    return subprocess.call(cmd, cwd=ROOT)


def assemble_report(path: Path, status: int) -> None:
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    lines = [
        "# EASYPAP reproduction report",
        "",
        f"Generated {stamp} by `tools/reproduce_all.py`; benchmark suite "
        f"exit status: {status} ({'all claims held' if status == 0 else 'FAILURES'}).",
        "",
        "Paper: *EASYPAP: a Framework for Learning Parallel Programming* "
        "(Lasserre, Namyst, Wacrenier, 2020).  See EXPERIMENTS.md for the "
        "claim-by-claim record; raw artifacts (SVG figures, PPM images) "
        "live in `benchmarks/out/`.",
        "",
    ]
    for title, stem in SECTIONS:
        lines.append(f"## {title}")
        lines.append("")
        report = OUT / f"{stem}.txt"
        if report.exists():
            lines.append("```")
            lines.append(report.read_text().rstrip())
            lines.append("```")
        else:
            lines.append("*(no output recorded — did the benchmark run?)*")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    print(f"report written to {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default=str(OUT / "REPORT.md"))
    parser.add_argument("--skip-run", action="store_true",
                        help="only assemble the report from existing outputs")
    args = parser.parse_args()
    status = 0 if args.skip_run else run_benchmarks()
    assemble_report(Path(args.output), status)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
