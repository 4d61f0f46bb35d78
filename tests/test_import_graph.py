"""Import-graph guard: a command loads only the layers it uses.

Each case runs one entry point in a fresh interpreter and checks the
modules it left in ``sys.modules``.  It checks modules, not times, so
it is deterministic.
"""

from __future__ import annotations

import json

import pytest

from tests.conftest import fresh_python

#: run a module as ``__main__`` and write its exit code and the loaded
#: module names to the JSON file named by the first argument
PROBE = """
import json, runpy, sys
out, mod = sys.argv[1], sys.argv[2]
sys.argv = [mod, *sys.argv[3:]]
try:
    runpy.run_module(mod, run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open(out, "w") as f:
    json.dump({"code": code, "modules": sorted(sys.modules)}, f)
"""

#: never loaded by a sim perf-mode run
FORBIDDEN = (
    "repro.mpi",
    "repro.omp.procs",
    "repro.util.workerpool",
    "repro.view",
    "repro.trace.gantt",
    "repro.trace.compare",
    "repro.trace.analysis",
    "repro.trace.chrome",
    "repro.trace.stats",
    "repro.trace.coverage",
    "multiprocessing.shared_memory",
    "socket",
    "numpy.random",
)

#: the telemetry consumers: a run builds (and imports) them only when
#: --monitoring or --trace selects them
CONSUMERS = ("repro.monitor", "repro.trace")

SIM_RUN = ["repro.cli", "-k", "mandel", "-v", "omp_tiled", "-s", "64", "-i", "1", "-n"]


def loaded(tmp_path, *argv: str) -> set[str]:
    out = tmp_path / "modules.json"
    proc = fresh_python("-c", PROBE, str(out), *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["code"] in (0, None), proc.stderr
    return set(report["modules"])


def offenders(modules: set[str], forbidden=FORBIDDEN) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    )


def test_sim_perf_run_loads_only_its_layers(tmp_path):
    modules = loaded(tmp_path, *SIM_RUN)
    assert offenders(modules, FORBIDDEN + CONSUMERS) == []
    assert sorted(m for m in modules if m.startswith("repro.kernels.")) == [
        "repro.kernels.mandel"
    ]


def test_traced_monitored_run_loads_only_its_layers(tmp_path):
    modules = loaded(tmp_path, *SIM_RUN, "-t", "-m",
                     "--trace-file", str(tmp_path / "run.evt"))
    # -m prints the terminal monitoring windows, the one view it uses
    shown = modules - {"repro.view", "repro.view.ascii"}
    assert offenders(shown) == []
    assert {"repro.trace.format", "repro.trace.recorder", "repro.monitor.activity"} <= modules
    assert sorted(m for m in modules if m.startswith("repro.kernels.")) == [
        "repro.kernels.mandel"
    ]
    assert len([m for m in modules if m == "repro" or m.startswith("repro.")]) <= 40


def test_serial_sweep_loads_no_pool_or_socket_executor(tmp_path):
    modules = loaded(
        tmp_path, "repro.expt", "-k", "mandel", "-v", "omp_tiled", "-s", "32",
        "-g", "16", "-i", "1", "--threads", "1,2", "--schedule", "static",
        "--schedule", "dynamic", "--csv", str(tmp_path / "sweep.csv"), "-q",
    )
    assert "repro.expt.exptools" in modules
    assert offenders(modules, (
        "repro.expt.executors.localprocs", "repro.expt.executors.socketexec", "socket",
    )) == []


@pytest.mark.parametrize("argv,needed", [
    (["-k", "mandel", "-v", "omp_tiled", "--backend", "procs", "--nb-threads", "2"],
     "repro.omp.procs"),
    (["-k", "life", "-v", "mpi_omp", "--mpirun", "-np 2"], "repro.mpi.launcher"),
])
def test_selected_backend_is_loaded(tmp_path, argv, needed):
    modules = loaded(tmp_path, "repro.cli", *argv, "-s", "64", "-ts", "16", "-i", "1", "-n")
    assert needed in modules
