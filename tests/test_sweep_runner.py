"""Tests for the parallel, resumable sweep runner (expTools tentpole).

Covers the fault-tolerance contract: parallel and serial sweeps produce
identical row sets, resume reruns exactly the missing points, a sweep
killed mid-run leaves the CSV loadable and resumable, concurrent
writers lose no rows, and failures become ``status=error`` rows instead
of aborting the sweep.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from multiprocessing import Process

import pytest

from repro.errors import ConfigError
from repro.expt.csvdb import append_rows, read_rows, strip_provenance
from repro.expt.exptools import (
    IDENTITY_COLUMNS,
    completed_points,
    execute,
    point_key,
    sweep_points,
)
from repro.expt.replay import WorkProfileCache

GRID_ICVS = {"OMP_NUM_THREADS=": [2, 4], "OMP_SCHEDULE=": ["static", "dynamic"]}
GRID_OPTS = {
    "--kernel ": ["mandel"],
    "--variant ": ["omp_tiled"],
    "--size ": [64],
    "--grain ": [16],
    "--iterations ": [2],
}


def canon(row: dict) -> tuple:
    """Order-insensitive, type-insensitive row signature, modulo the
    provenance columns (which executor/worker ran the point)."""
    return tuple(sorted((k, str(v)) for k, v in strip_provenance(row).items()))


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path):
        serial = execute("easypap", GRID_ICVS, GRID_OPTS, runs=2,
                         csv_path=tmp_path / "serial.csv")
        par = execute("easypap", GRID_ICVS, GRID_OPTS, runs=2,
                      csv_path=tmp_path / "par.csv", workers=3)
        assert len(par) == len(serial) == 8
        assert sorted(map(canon, par)) == sorted(map(canon, serial))
        # and the CSVs round-trip to the same set
        assert sorted(map(canon, read_rows(tmp_path / "par.csv"))) == sorted(
            map(canon, read_rows(tmp_path / "serial.csv"))
        )

    def test_parallel_reuse_work_matches_serial(self, tmp_path):
        serial = execute("easypap", GRID_ICVS, GRID_OPTS, runs=2,
                         csv_path=tmp_path / "serial.csv", reuse_work=True)
        par = execute("easypap", GRID_ICVS, GRID_OPTS, runs=2,
                      csv_path=tmp_path / "par.csv", workers=2, reuse_work=True,
                      cache_dir=tmp_path / "cache")
        assert sorted(map(canon, par)) == sorted(map(canon, serial))

    def test_bad_workers_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            execute("easypap", {}, GRID_OPTS, workers=0,
                    csv_path=tmp_path / "x.csv")

    def test_rows_carry_executor_provenance(self, tmp_path):
        serial = execute("easypap", {}, GRID_OPTS, runs=1,
                         csv_path=tmp_path / "s.csv")
        assert all(r["executor"] == "serial" for r in serial)
        assert all(r["worker_id"] for r in serial)
        par = execute("easypap", GRID_ICVS, GRID_OPTS, runs=1,
                      csv_path=tmp_path / "p.csv", workers=2)
        assert all(r["executor"] == "local-procs" for r in par)


class TestResume:
    def test_resume_skips_everything_when_complete(self, tmp_path):
        p = tmp_path / "perf.csv"
        execute("easypap", GRID_ICVS, GRID_OPTS, runs=2, csv_path=p)
        again = execute("easypap", GRID_ICVS, GRID_OPTS, runs=2, csv_path=p,
                        resume=True)
        assert again == []
        assert len(read_rows(p)) == 8

    def test_resume_runs_exactly_the_missing_points(self, tmp_path):
        p = tmp_path / "perf.csv"
        execute("easypap", GRID_ICVS, GRID_OPTS, runs=2, csv_path=p)
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines[:-3]))  # drop the last 3 recorded points
        before = {point_key(r) for r in read_rows(p)}
        redone = execute("easypap", GRID_ICVS, GRID_OPTS, runs=2, csv_path=p,
                         resume=True)
        assert len(redone) == 3
        assert all(point_key(r) not in before for r in redone)
        rows = read_rows(p)
        assert len(rows) == 8
        assert len({point_key(r) for r in rows}) == 8

    def test_resume_extends_a_grown_sweep(self, tmp_path):
        p = tmp_path / "perf.csv"
        execute("easypap", GRID_ICVS, GRID_OPTS, runs=1, csv_path=p)
        wider = dict(GRID_ICVS, **{"OMP_NUM_THREADS=": [2, 4, 6]})
        redone = execute("easypap", wider, GRID_OPTS, runs=1, csv_path=p,
                         resume=True)
        assert {r["threads"] for r in redone} == {6}
        assert len(redone) == 2  # the new thread count x 2 schedules
        assert len(read_rows(p)) == 6

    def test_error_rows_are_retried_on_resume(self, tmp_path):
        p = tmp_path / "perf.csv"
        rows = [dict(zip(IDENTITY_COLUMNS, point))
                for point in [point_key({**c.csv_row(), "run": r})
                              for c, r in sweep_points(GRID_ICVS, GRID_OPTS, 1)]]
        for i, r in enumerate(rows):
            r["status"] = "error" if i == 0 else "ok"
        append_rows(p, rows)
        done = completed_points(p)
        assert len(done) == len(rows) - 1

    def test_legacy_csv_without_status_counts_all_rows(self, tmp_path):
        p = tmp_path / "perf.csv"
        points = sweep_points(GRID_ICVS, GRID_OPTS, 1)
        append_rows(p, [dict(c.csv_row(), run=r) for c, r in points])
        assert len(completed_points(p)) == len(points)


class TestFailures:
    def test_timeout_records_error_row_and_sweep_continues(self, tmp_path):
        p = tmp_path / "perf.csv"
        rows = execute(
            "easypap", {"OMP_NUM_THREADS=": [2]},
            {"--kernel ": ["mandel"], "--size ": [64, 512],
             "--iterations ": [1, 8]},
            csv_path=p, timeout=0.2, retries=1,
        )
        assert len(rows) == 4
        by_status = {r["status"] for r in rows}
        assert "error" in by_status and "ok" in by_status
        failed = [r for r in rows if r["status"] == "error"]
        assert all("exceeded" in r["error"] for r in failed)
        assert all(r["time_us"] == "" for r in failed)
        # the CSV stays loadable and the error rows round-trip
        stored = read_rows(p)
        assert len(stored) == 4

    def test_timeout_in_parallel_workers(self, tmp_path):
        rows = execute(
            "easypap", {"OMP_NUM_THREADS=": [2, 4]},
            {"--kernel ": ["mandel"], "--size ": [512], "--iterations ": [8]},
            csv_path=tmp_path / "perf.csv", timeout=0.1, workers=2,
        )
        assert [r["status"] for r in rows] == ["error", "error"]


def _hammer(path, tag, count):
    for i in range(count):
        append_rows(path, [{"writer": tag, "i": i, "payload": "x" * 50}])


class TestConcurrentWriters:
    def test_two_processes_lose_no_rows(self, tmp_path):
        p = tmp_path / "shared.csv"
        n = 60
        procs = [Process(target=_hammer, args=(p, tag, n)) for tag in ("a", "b")]
        for pr in procs:
            pr.start()
        for pr in procs:
            pr.join(timeout=60)
            assert pr.exitcode == 0
        rows = read_rows(p)
        assert len(rows) == 2 * n
        for tag in ("a", "b"):
            assert sorted(r["i"] for r in rows if r["writer"] == tag) == list(range(n))


KILL_ARGS = [
    "-m", "repro.expt", "-k", "mandel", "-v", "omp_tiled", "-s", "256",
    "-g", "16", "-i", "4", "--threads", "2,4", "--schedule", "static",
    "--runs", "3", "--workers", "2", "-q",
]


class TestKillResume:
    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        p = tmp_path / "perf.csv"
        env = dict(os.environ, PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, *KILL_ARGS, "--csv", str(p)],
            env=env, start_new_session=True, cwd=os.path.dirname(os.path.dirname(__file__)),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if p.exists() and len(p.read_text().splitlines()) >= 3:
                    break  # header + at least 2 recorded points
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                os.killpg(proc.pid, signal.SIGKILL)

        # the database survived the kill: loadable, no duplicate points
        survivors = read_rows(p)
        assert len({point_key(r) for r in survivors}) == len(survivors)

        redone = execute(
            "easypap", {"OMP_NUM_THREADS=": [2, 4], "OMP_SCHEDULE=": ["static"]},
            {"--kernel ": ["mandel"], "--variant ": ["omp_tiled"],
             "--size ": [256], "--grain ": [16], "--iterations ": [4]},
            runs=3, csv_path=p, resume=True, workers=2,
        )
        rows = read_rows(p)
        complete = [r for r in rows if r.get("status") == "ok"]
        assert len({point_key(r) for r in complete}) == 6  # 2 threads x 3 runs
        assert len(redone) <= 6


class TestDiskCache:
    def test_profile_persists_across_instances(self, tmp_path, monkeypatch):
        from tests.conftest import make_config

        import repro.expt.replay as replay

        cfg = make_config()
        first = WorkProfileCache(cache_dir=tmp_path)
        t1 = first.simulate(cfg)
        assert list(tmp_path.glob("profile-*.pkl"))

        def boom(config):  # a second capture would be a cache miss
            raise AssertionError("profile should have come from disk")

        monkeypatch.setattr(replay, "capture_log", boom)
        t2 = WorkProfileCache(cache_dir=tmp_path).simulate(cfg)
        assert t1 == t2

    def test_corrupt_cache_entry_is_recaptured(self, tmp_path):
        from tests.conftest import make_config

        cfg = make_config()
        t1 = WorkProfileCache(cache_dir=tmp_path).simulate(cfg)
        for f in tmp_path.glob("profile-*.pkl"):
            f.write_bytes(b"not a pickle")
        t2 = WorkProfileCache(cache_dir=tmp_path).simulate(cfg)
        assert t1 == t2

    def test_memory_only_without_cache_dir(self, tmp_path, monkeypatch):
        from tests.conftest import make_config

        monkeypatch.chdir(tmp_path)
        cache = WorkProfileCache()
        cache.simulate(make_config())
        assert not list(tmp_path.rglob("profile-*.pkl"))
