"""Self-tests of the benchmark at a tiny size.

    PYTHONPATH=src python -m pytest perfbench -q

The workload driver runs in-process on shrunken op pools for a fraction
of a second; the metric functions of ``run.py`` then turn its raw output
into the printed metrics.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import driver  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FAKE_PROBE = {"median": 1.5, "min": 1.4, "max": 1.6, "ratios": [1.4, 1.5, 1.6]}
IMPORTTIME = (
    "import time: self [us] | cumulative | imported package\n"
    "import time:      1000 |       1000 |   numpy.core\n"
    "import time:      2000 |       3000 | numpy\n"
    "import time:       500 |        500 |   repro.core\n"
    "import time:       700 |       4200 | repro\n"
    "import time:       100 |        100 | json\n"
)


def tiny(workload: str, tmp_path: Path, *, seed: int = 1, trace: bool = False,
         refs_hook=None) -> dict:
    return driver.drive(
        workload, seed, 0.2, trace, tmp_path / f"work-{workload}-{seed}-{int(trace)}",
        tiny=True, refs_hook=refs_hook,
    )


def metrics_of(raw: dict, trace: bool) -> dict:
    if trace:
        values = run.per_layer(raw, run.parse_importtime(IMPORTTIME), FAKE_PROBE, 2, 0.0)
        units = run.PER_LAYER
    else:
        values = run.end_to_end(raw, [0.5], [0.5], [0.15])
        units = run.END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def test_spec_lists_exactly_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, tmp_path):
    for trace in (False, True):
        raw = tiny(workload, tmp_path, trace=trace)
        assert all(s["ok"] for s in raw["samples"]), [s["reason"] for s in raw["samples"]]
        metrics = metrics_of(raw, trace)
        want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for m in want:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], float | int)
        if not trace:
            assert all(metrics[m["name"]]["value"] > 0 for m in want)


@pytest.mark.parametrize("workload", ["perf_frames", "real_parallel"])
def test_forced_wrong_digest_counts_as_failure(workload, tmp_path):
    def corrupt(refs):
        key = sorted(refs)[0]
        refs[key] = ("0" * 16, refs[key][1])

    raw = tiny(workload, tmp_path, refs_hook=corrupt)
    failed = [s for s in raw["samples"] if not s["ok"]]
    assert failed and all("digest" in s["reason"] for s in failed)
    assert run.end_to_end(raw, [0.5], [0.5], [0.15])["ok_ratio"] < 1.0


def test_forced_wrong_sweep_time_counts_as_failure(tmp_path):
    def corrupt(refs):
        key = next(iter(refs["grid"]))
        refs["grid"][key] += 1.0

    raw = tiny("sweep", tmp_path, refs_hook=corrupt)
    reasons = [s["reason"] for s in raw["samples"] if not s["ok"]]
    assert reasons and all("time_us" in r for r in reasons)


def test_seed_changes_order_not_metric_names(tmp_path):
    a = tiny("instrumented", tmp_path, seed=1)
    b = tiny("instrumented", tmp_path, seed=2)
    assert a["first_cycle"] != b["first_cycle"]
    assert sorted(a["first_cycle"]) == sorted(b["first_cycle"])
    assert metrics_of(a, False).keys() == metrics_of(b, False).keys()
    for trace in (False, True):
        names_a = metrics_of(tiny("sweep", tmp_path, seed=1, trace=trace), trace).keys()
        names_b = metrics_of(tiny("sweep", tmp_path, seed=2, trace=trace), trace).keys()
        assert names_a == names_b


@pytest.mark.parametrize("workload", ["perf_frames", "instrumented", "real_parallel"])
def test_traced_and_untraced_runs_agree(workload, tmp_path):
    plain = tiny(workload, tmp_path)
    traced = tiny(workload, tmp_path, trace=True)
    assert any(s["traced"] for s in traced["samples"])
    assert all(s["ok"] for s in traced["samples"])
    # one digest per op across traced and untraced cycles and runs
    assert all(len(d) == 1 for d in traced["digests"].values())
    assert traced["digests"] == plain["digests"]


def test_spans_cover_the_layers(tmp_path):
    layers = tiny("real_parallel", tmp_path, trace=True)["layers"]
    for name in ("core.run.s", "omp.tiles_s", "procs.region.s", "procs.wait.s",
                 "mpi.run.s", "telemetry.publish.calls"):
        assert layers[name] > 0, name
    layers = tiny("sweep", tmp_path, trace=True)["layers"]
    for name in ("expt.execute.s", "expt.point.s", "expt.capture.s", "expt.resume.s",
                 "csvdb.append.s", "csvdb.read.s", "expt.memo.hit_ratio"):
        assert layers[name] > 0, name
    assert 0 <= layers["bench.unattributed.ratio"] < 1


def test_parse_importtime():
    got = run.parse_importtime(IMPORTTIME)
    assert got == pytest.approx(
        {"import.total_s": 0.0043, "import.numpy_s": 0.003, "import.repro_s": 0.0012}
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
