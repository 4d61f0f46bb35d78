"""PERF — performance mode (paper §II-C).

Paper example::

    > easypap --kernel mandel --variant omp_tiled --tile-size 16 \
              --iterations 50 --no-display
    50 iterations completed in 579ms

We reproduce the exact invocation (scaled: dim 256, max_iter 128) through
the real CLI and check the output line + the CSV row it appends.
Absolute milliseconds are cost-model calibration, not a claim; the
*format* and the CSV round-trip are.
"""

import io
from contextlib import redirect_stdout

from _common import report
from claims import perfmode
from repro.cli import main as easypap_main
from repro.expt.csvdb import read_rows


def run_perf(tmp_csv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = easypap_main([
            "--kernel", "mandel", "--variant", "omp_tiled",
            "--tile-size", "16", "--iterations", "50", "--no-display",
            "--size", "256", "--arg", "128", "--nb-threads", "4",
            "--csv", str(tmp_csv),
        ])
    return rc, buf.getvalue()


def test_perfmode(benchmark, tmp_path):
    csv = tmp_path / "perf.csv"
    rc, output = benchmark.pedantic(run_perf, args=(csv,), rounds=1, iterations=1)
    rows = read_rows(csv)
    # worker_id names the process that ran the point: it differs per run
    shown = {k: v for k, v in rows[-1].items() if k != "worker_id"}
    text = (
        "command: easypap --kernel mandel --variant omp_tiled --tile-size 16 "
        "--iterations 50 --no-display (dim 256, max_iter 128)\n"
        f"output: {output.strip()}\n"
        f"CSV row: {shown}\n"
        'paper: "50 iterations completed in 579ms" — same format, '
        "virtual-time magnitude depends on cost-model calibration."
    )
    report("perfmode", text)
    perfmode(rc, output, rows[-1], iterations=50)
