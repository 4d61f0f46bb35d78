"""FIG5 — the expTools experiment-automation script (paper Fig. 5).

The paper's script, verbatim in structure::

    easypap_options["--kernel "]     = ["mandel"]
    easypap_options["--iterations "] = [10]
    easypap_options["--variant "]    = ["omp_tiled"]
    easypap_options["--grain "]      = [16, 32]
    omp_icv["OMP_NUM_THREADS="]      = list(range(2, 13, 2))
    omp_icv["OMP_SCHEDULE="]         = ["static", "guided", "dynamic,2",
                                        "nonmonotonic:dynamic"]
    execute('easypap', omp_icv, easypap_options, runs=10)

Scaled here to dim 256 / max_iter 128 / runs=3, with work-profile reuse
(replayed results are bit-identical to full runs — see tests/test_replay.py).
"""

from _common import fmt_table, report
from repro.expt.csvdb import read_rows, unique_values
from repro.expt.exptools import execute


def run_sweep(csv_path):
    easypap_options = {}
    omp_icv = {}
    easypap_options["--kernel "] = ["mandel"]
    easypap_options["--iterations "] = [10]
    easypap_options["--variant "] = ["omp_tiled"]
    easypap_options["--grain "] = [16, 32]
    easypap_options["--size "] = [256]
    easypap_options["--arg "] = [128]
    omp_icv["OMP_NUM_THREADS="] = list(range(2, 13, 2))
    omp_icv["OMP_SCHEDULE="] = ["static", "guided", "dynamic,2",
                                "nonmonotonic:dynamic"]
    return execute("easypap", omp_icv, easypap_options, runs=3,
                   csv_path=csv_path, reuse_work=True)


def test_fig05_exptools(benchmark, tmp_path):
    csv = tmp_path / "perf_data.csv"
    rows = benchmark.pedantic(run_sweep, args=(csv,), rounds=1, iterations=1)

    stored = read_rows(csv)
    expected = 2 * 6 * 4 * 3  # grains x threads x schedules x runs
    # worker_id names the process that ran the point: it differs per run
    cols = [c for c in stored[0] if c != "worker_id"]
    sample = fmt_table(cols, [[r[c] for c in cols] for r in stored[:4]])
    text = (
        f"sweep produced {len(rows)} rows (expected {expected}): "
        f"grains={unique_values(stored, 'tile_w')}, "
        f"threads={unique_values(stored, 'threads')}, "
        f"schedules={unique_values(stored, 'schedule')}\n\n"
        "first rows of perf_data.csv:\n" + sample
    )
    report("fig05_exptools", text)
    assert len(rows) == expected
    assert unique_values(stored, "threads") == [2, 4, 6, 8, 10, 12]
    assert len(unique_values(stored, "schedule")) == 4
