"""Fault injection for the distributed sweep fabric.

The contract under fire: a sweep interrupted under the ``socket``
executor — a worker SIGKILLed mid-job, the master killed mid-sweep —
resumes to a complete, duplicate-free csvdb under any executor.

The deterministic half drives the wire protocol directly (a saboteur
connection that takes a job and dies, a hung worker that takes a job
and goes silent); the subprocess half (``@pytest.mark.slow``) kills
real worker/master processes with SIGKILL, exactly as a cluster would
lose them.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.expt.csvdb import read_rows
from repro.expt.executors.socketexec import SocketExecutor, run_worker
from repro.expt.executors.protocol import (
    JOB,
    REQUEST_JOB,
    recv_message,
    send_message,
)
from repro.expt.exptools import execute, point_key
from tests.test_executor_equivalence import spawn_worker

REPO_ROOT = Path(__file__).resolve().parent.parent

GRID_ICVS = {"OMP_NUM_THREADS=": [2, 4]}
GRID_OPTS = {
    "--kernel ": ["mandel"],
    "--variant ": ["omp_tiled"],
    "--size ": [64],
    "--grain ": [16],
    "--iterations ": [2],
}


def in_thread_worker(port: int) -> threading.Thread:
    """A real worker loop on a thread of this process (cheap, and the
    point execution path is identical to a subprocess worker's)."""
    t = threading.Thread(
        target=run_worker, args=("127.0.0.1", port),
        kwargs={"connect_wait": 30.0}, daemon=True,
    )
    t.start()
    return t


def run_sweep(ex: SocketExecutor, csv_path, runs: int = 2, **kw) -> list[dict]:
    return execute("easypap", GRID_ICVS, GRID_OPTS, runs=runs,
                   csv_path=csv_path, executor=ex, **kw)


def assert_complete(csv_path, expected_points: int) -> list[dict]:
    rows = read_rows(csv_path)
    ok = [r for r in rows if r["status"] == "ok"]
    keys = [point_key(r) for r in ok]
    assert len(set(keys)) == expected_points, (len(set(keys)), expected_points)
    assert len(keys) == len(set(keys)), "duplicate csv rows"
    return rows


class TestWorkerDeath:
    def test_worker_eof_mid_job_is_requeued_and_sweep_completes(self, tmp_path):
        """A saboteur takes a job and drops the connection; the job
        must be re-dispatched to a surviving worker."""
        ex = SocketExecutor(lease_timeout=60.0)
        port = ex.address[1]
        got_job = threading.Event()

        def saboteur():
            deadline = time.monotonic() + 15
            while True:  # the master accepts only once drain starts
                try:
                    s = socket.create_connection(("127.0.0.1", port), timeout=2)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.05)
            with s:
                send_message(s, REQUEST_JOB, {"worker_id": "saboteur"})
                mtype, _payload = recv_message(s)
                assert mtype == JOB
                got_job.set()
                # die with the job leased: EOF reaches the master

        sab = threading.Thread(target=saboteur, daemon=True)
        sab.start()

        def honest_when_sabotaged():
            assert got_job.wait(timeout=30)
            in_thread_worker(port)

        starter = threading.Thread(target=honest_when_sabotaged, daemon=True)
        starter.start()

        rows = run_sweep(ex, tmp_path / "perf.csv")
        sab.join(timeout=10)
        starter.join(timeout=10)

        assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
        assert ex.counters["jobs_requeued"] >= 1
        assert ex.counters["worker_disconnects"] >= 1
        assert_complete(tmp_path / "perf.csv", 4)

    def test_hung_worker_lease_expires_and_job_is_requeued(self, tmp_path):
        """A worker that takes a job and goes silent (no EOF — e.g. a
        partitioned host) is fenced by the lease timeout."""
        ex = SocketExecutor(lease_timeout=1.0)
        port = ex.address[1]
        got_job = threading.Event()
        release = threading.Event()

        def hung():
            deadline = time.monotonic() + 15
            while True:
                try:
                    s = socket.create_connection(("127.0.0.1", port), timeout=2)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.05)
            with s:
                send_message(s, REQUEST_JOB, {"worker_id": "hung"})
                mtype, _payload = recv_message(s)
                assert mtype == JOB
                got_job.set()
                release.wait(timeout=60)  # hold the lease, say nothing

        t = threading.Thread(target=hung, daemon=True)
        t.start()

        def honest_when_hung():
            assert got_job.wait(timeout=30)
            in_thread_worker(port)

        starter = threading.Thread(target=honest_when_hung, daemon=True)
        starter.start()

        rows = run_sweep(ex, tmp_path / "perf.csv")
        release.set()
        t.join(timeout=10)
        starter.join(timeout=10)

        assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
        assert ex.counters["jobs_requeued"] >= 1
        assert_complete(tmp_path / "perf.csv", 4)

    def test_repeated_worker_death_becomes_error_row_not_livelock(self, tmp_path):
        """Requeues are bounded: a job whose every worker dies is
        recorded as status=error instead of looping forever."""
        ex = SocketExecutor(lease_timeout=60.0, max_requeues=1)
        port = ex.address[1]

        def killer_workers():
            deaths = 0
            deadline = time.monotonic() + 60
            # keep taking jobs and dying until the master gives up on
            # all of them (max_requeues=1 -> 2 deaths per job)
            while deaths < 8 and time.monotonic() < deadline:
                try:
                    s = socket.create_connection(("127.0.0.1", port), timeout=2)
                except OSError:
                    time.sleep(0.05)
                    continue
                with s:
                    try:
                        send_message(s, REQUEST_JOB, {"worker_id": f"k{deaths}"})
                        msg = recv_message(s)
                    except OSError:
                        return
                    if msg is None or msg[0] != JOB:
                        return
                deaths += 1

        t = threading.Thread(target=killer_workers, daemon=True)
        t.start()
        rows = run_sweep(ex, tmp_path / "perf.csv", runs=1)
        t.join(timeout=30)

        assert len(rows) == 2
        assert all(r["status"] == "error" for r in rows)
        assert all("gave up" in r["error"] for r in rows)
        assert all(r["executor"] == "socket" for r in rows)
        # error rows do not block a later resume: a healthy pass
        # re-runs them to completion under another executor
        redone = execute("easypap", GRID_ICVS, GRID_OPTS, runs=1,
                         csv_path=tmp_path / "perf.csv", resume=True,
                         executor="serial")
        assert len(redone) == 2 and all(r["status"] == "ok" for r in redone)
        assert_complete(tmp_path / "perf.csv", 2)


class TestShutdown:
    def test_worker_connecting_after_no_more_jobs_exits_cleanly(self):
        """While the master lingers after the grid resolved, a late
        worker gets NO_MORE_JOBS; after the master is gone, it gets
        connection-refused.  Both are clean exit 0."""
        ex = SocketExecutor(linger=10.0)
        ex.configure(ex.options)
        port = ex.address[1]
        drained: list = []
        t = threading.Thread(target=lambda: drained.extend(ex.drain()),
                             daemon=True)
        t.start()  # zero jobs: the grid is resolved immediately
        try:
            assert run_worker("127.0.0.1", port, connect_wait=5.0) == 0
        finally:
            ex.close()
            t.join(timeout=10)
        assert drained == []

    def test_worker_with_no_master_exits_cleanly(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead_port = s.getsockname()[1]
        # nothing listens on dead_port anymore
        assert run_worker("127.0.0.1", dead_port, connect_wait=0.3) == 0


SLOW_OPTS = {
    "--kernel ": ["mandel"],
    "--variant ": ["omp_tiled"],
    "--size ": [512],
    "--grain ": [16],
    "--iterations ": [16],  # ~0.7s of wall per job: a wide kill window
}


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.mark.slow
class TestProcessKill:
    def test_sigkill_worker_mid_job_sweep_still_completes(self, tmp_path):
        """Master + 2 localhost worker processes; one is SIGKILLed
        while it provably holds a lease.  The job is requeued to the
        survivor and the sweep completes without duplicates."""
        ex = SocketExecutor(lease_timeout=120.0)
        port = ex.address[1]
        workers = [spawn_worker(port), spawn_worker(port)]
        victim = workers[0]

        killed = threading.Event()

        def kill_when_leased():
            deadline = time.monotonic() + 120
            suffix = f"-{victim.pid}"
            while time.monotonic() < deadline:
                with ex._lock:
                    leased = any(
                        lease.worker_id.endswith(suffix)
                        for lease in ex._leases.values()
                    )
                if leased:
                    victim.kill()  # SIGKILL, mid-job by construction
                    killed.set()
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_when_leased, daemon=True)
        killer.start()
        try:
            rows = execute("easypap", {"OMP_NUM_THREADS=": [2, 4]}, SLOW_OPTS,
                           runs=3, csv_path=tmp_path / "perf.csv", executor=ex)
        finally:
            for w in workers:
                if w.poll() is None and not (w is victim and killed.is_set()):
                    w.wait(timeout=60)
        killer.join(timeout=10)

        assert killed.is_set(), "victim never held a lease"
        assert victim.wait(timeout=10) != 0  # SIGKILLed, not graceful
        assert workers[1].wait(timeout=60) == 0
        assert len(rows) == 6 and all(r["status"] == "ok" for r in rows)
        assert ex.counters["jobs_requeued"] >= 1
        assert ex.counters["worker_disconnects"] >= 1
        assert_complete(tmp_path / "perf.csv", 6)

    def test_sigkill_master_then_resume_completes_without_duplicates(self, tmp_path):
        """The master dies mid-sweep; every row it recorded survives,
        the worker exits cleanly, and resuming — under a *different*
        executor — finishes exactly the missing points."""
        csv = tmp_path / "perf.csv"
        port = _free_port()
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        master = subprocess.Popen(
            [sys.executable, "-m", "repro.expt",
             "-k", "mandel", "-v", "omp_tiled", "-s", "512", "-g", "16",
             "-i", "16", "--threads", "2,4", "--schedule", "static",
             "--runs", "3", "--executor", "socket",
             "--bind", f"127.0.0.1:{port}", "--csv", str(csv), "-q"],
            env=env, cwd=REPO_ROOT, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        worker = spawn_worker(port)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if csv.exists() and len(csv.read_text().splitlines()) >= 3:
                    break  # header + >= 2 recorded points
                if master.poll() is not None:
                    break
                time.sleep(0.05)
            if master.poll() is None:
                os.killpg(master.pid, signal.SIGKILL)
            master.wait(timeout=30)
        finally:
            if master.poll() is None:  # pragma: no cover - cleanup
                os.killpg(master.pid, signal.SIGKILL)

        # orphaned worker notices the dead master and exits cleanly
        assert worker.wait(timeout=60) == 0

        survivors = read_rows(csv)
        assert len({point_key(r) for r in survivors}) == len(survivors)

        redone = execute(
            "easypap", {"OMP_NUM_THREADS=": [2, 4], "OMP_SCHEDULE=": ["static"]},
            SLOW_OPTS, runs=3, csv_path=csv, resume=True, workers=2,
            executor="local-procs",
        )
        rows = assert_complete(csv, 6)  # 2 thread counts x 3 runs
        assert len(redone) <= 6
        # provenance shows the handoff once both executors contributed
        if redone:
            assert {r["executor"] for r in rows} >= {"local-procs"}
