"""Cross-executor equivalence: the sweep fabric must not change the
science.

The same grid run under ``serial``, ``local-procs`` and ``socket``
(workers as subprocesses on localhost) yields row-identical csvdbs
modulo the provenance columns — the simulator is deterministic, so
even ``time_us`` matches bit-for-bit.  A hypothesis property pins the
resume contract underneath: *any* interleaving of job completions,
under any executor mix, preserves the ``csv_row`` + run-index resume
identity.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expt.csvdb import append_rows, read_rows, strip_provenance
from repro.expt.executors import EXECUTOR_NAMES
from repro.expt.executors.socketexec import SocketExecutor
from repro.expt.exptools import completed_points, execute, point_key, sweep_points

REPO_ROOT = Path(__file__).resolve().parent.parent

GRID_ICVS = {"OMP_NUM_THREADS=": [2, 4], "OMP_SCHEDULE=": ["static", "dynamic"]}
GRID_OPTS = {
    "--kernel ": ["mandel"],
    "--variant ": ["omp_tiled"],
    "--size ": [64],
    "--grain ": [16],
    "--iterations ": [2],
}
RUNS = 2  # 2 threads x 2 schedules x 2 runs = 8 points


def spawn_worker(port: int, *extra: str) -> subprocess.Popen:
    """A ``python -m repro.expt worker`` subprocess against localhost."""
    env = dict(os.environ,
               PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.expt", "worker",
         "--connect", f"127.0.0.1:{port}", "-q", *extra],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def canon(row: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in strip_provenance(row).items()))


class TestCrossExecutorEquivalence:
    def test_three_executors_yield_identical_rows(self, tmp_path):
        results: dict[str, list[tuple]] = {}

        rows = execute("easypap", GRID_ICVS, GRID_OPTS, runs=RUNS,
                       csv_path=tmp_path / "serial.csv", executor="serial")
        assert all(r["executor"] == "serial" for r in rows)
        results["serial"] = sorted(map(canon, rows))

        rows = execute("easypap", GRID_ICVS, GRID_OPTS, runs=RUNS,
                       csv_path=tmp_path / "procs.csv", workers=3,
                       executor="local-procs")
        assert all(r["executor"] == "local-procs" for r in rows)
        results["local-procs"] = sorted(map(canon, rows))

        ex = SocketExecutor(lease_timeout=120.0)
        workers = [spawn_worker(ex.address[1]), spawn_worker(ex.address[1])]
        try:
            rows = execute("easypap", GRID_ICVS, GRID_OPTS, runs=RUNS,
                           csv_path=tmp_path / "socket.csv", executor=ex)
        finally:
            exits = [w.wait(timeout=30) for w in workers]
        assert all(r["executor"] == "socket" for r in rows)
        assert all(r["worker_id"] for r in rows)
        # both workers received NO_MORE_JOBS and exited cleanly
        assert exits == [0, 0]
        results["socket"] = sorted(map(canon, rows))

        assert set(results) == set(EXECUTOR_NAMES)
        assert results["serial"] == results["local-procs"] == results["socket"]
        assert len(results["serial"]) == 8

        # ...and the csvdbs on disk agree too
        on_disk = {
            name: sorted(map(canon, read_rows(tmp_path / f"{name}.csv")))
            for name in ("serial", "procs", "socket")
        }
        assert on_disk["serial"] == on_disk["procs"] == on_disk["socket"]

    def test_sweep_started_under_socket_resumes_under_serial(self, tmp_path):
        """The resume identity survives executor changes: complete half
        the grid under socket, the rest under serial."""
        csv = tmp_path / "perf.csv"
        half_icvs = {"OMP_NUM_THREADS=": [2], "OMP_SCHEDULE=": ["static", "dynamic"]}
        ex = SocketExecutor(lease_timeout=120.0)
        worker = spawn_worker(ex.address[1])
        try:
            first = execute("easypap", half_icvs, GRID_OPTS, runs=RUNS,
                            csv_path=csv, executor=ex)
        finally:
            assert worker.wait(timeout=30) == 0
        assert len(first) == 4

        redone = execute("easypap", GRID_ICVS, GRID_OPTS, runs=RUNS,
                         csv_path=csv, resume=True, executor="serial")
        assert len(redone) == 4  # only the 4-thread half was missing
        assert all(r["threads"] == 4 for r in redone)
        rows = read_rows(csv)
        keys = [point_key(r) for r in rows]
        assert len(keys) == 8
        assert len(set(keys)) == 8  # zero duplicates across executors
        assert {r["executor"] for r in rows} == {"socket", "serial"}


class TestInterleavingProperty:
    """Hypothesis: whatever subset of the grid completes, in whatever
    order, recorded by whatever executor — ``completed_points`` +
    re-running the complement reconstructs exactly the full grid."""

    GRID = None  # built lazily; sweep_points parses argv per example otherwise

    @classmethod
    def grid(cls):
        if cls.GRID is None:
            cls.GRID = sweep_points(GRID_ICVS, GRID_OPTS, RUNS)
        return cls.GRID

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_completion_interleaving_preserves_resume_identity(self, data):
        points = self.grid()
        n = len(points)
        order = data.draw(st.permutations(range(n)))
        prefix = data.draw(st.integers(min_value=0, max_value=n))
        statuses = data.draw(st.lists(
            st.sampled_from(["ok", "error"]), min_size=prefix, max_size=prefix))
        executors = data.draw(st.lists(
            st.sampled_from(EXECUTOR_NAMES), min_size=prefix, max_size=prefix))

        with tempfile.TemporaryDirectory() as d:
            csv = Path(d) / "perf.csv"
            rows = []
            for idx, status, executor in zip(order[:prefix], statuses, executors):
                config, rep = points[idx]
                row = dict(config.csv_row())
                row.update(run=rep, machine="virtual", status=status,
                           executor=executor, worker_id=f"w{idx}")
                rows.append(row)
            if rows:
                append_rows(csv, rows)

            done = completed_points(csv)
            ok_idx = {i for i, s in zip(order[:prefix], statuses) if s == "ok"}
            expected = {
                point_key({**points[i][0].csv_row(), "run": points[i][1]})
                for i in ok_idx
            }
            # exactly the ok rows count as done, regardless of arrival
            # order or which executor produced them
            assert done == expected

            missing = [
                (c, r) for c, r in points
                if point_key({**c.csv_row(), "run": r}) not in done
            ]
            assert len(missing) == n - len(ok_idx)
            # done + missing partition the grid: nothing lost, nothing doubled
            missing_keys = {point_key({**c.csv_row(), "run": r}) for c, r in missing}
            assert not (missing_keys & done)
            assert len(missing_keys | done) == n
