"""Fault injection for the distributed sweep fabric.

The contract under fire: a sweep interrupted under the ``socket``
executor — a worker SIGKILLed mid-job, the master killed mid-sweep —
resumes to a complete, duplicate-free csvdb under any executor.

The deterministic half drives the wire protocol directly (a saboteur
connection that takes a job and dies, a hung worker that takes a job
and goes silent); the subprocess half (``@pytest.mark.slow``) kills
real worker/master processes with SIGKILL, exactly as a cluster would
lose them.  ``local-procs`` is the same master with forked localhost
workers: its worker-death tests run each sweep in a subprocess under a
hard timeout, so a sweep that hangs on a dead worker fails the test
instead of the test run.
"""

from __future__ import annotations

import json
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
from repro.expt.executors import localprocs
from repro.expt.executors.base import RunOptions, SweepJob
from repro.expt.executors.socketexec import SocketExecutor, _connect, run_worker
from repro.expt.executors.protocol import (
    JOB,
    REQUEST_JOB,
    recv_message,
    send_message,
)
from repro.expt.exptools import execute, point_key, sweep_points
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

    def test_close_after_drain_wakes_the_acceptor(self):
        """close() must not wait out the acceptor's join timeout: a
        listener that is only closed leaves accept() blocked."""
        ex = SocketExecutor()
        ex.configure(RunOptions())
        config, rep = sweep_points({}, GRID_OPTS, 1)[0]
        ex.submit(SweepJob(0, config, rep))
        in_thread_worker(ex.address[1])
        rows = list(ex.drain())
        started = time.monotonic()
        ex.close()
        assert time.monotonic() - started < 0.5
        assert [r["status"] for r in rows] == ["ok"]

    def test_worker_socket_disables_nagle(self):
        """A worker writes RESULT then REQUEST_JOB: with Nagle on, the
        second small write waits for the master's delayed ACK."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            sock = _connect(listener.getsockname(), 1.0)
            assert sock is not None
            with sock:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_worker_with_no_master_exits_cleanly(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead_port = s.getsockname()[1]
        # nothing listens on dead_port anymore
        assert run_worker("127.0.0.1", dead_port, connect_wait=0.3) == 0


# Runs one local-procs sweep in a fresh interpreter and prints its
# outcome as JSON.  The ``mandel_doomed`` kernel acts only inside a
# forked worker: under "kill" it marks the worker as mid-job and runs
# slowly, under "poison" its threads=4 point SIGKILLs its own worker
# while the ``poison`` flag file exists.
LOCAL_DEATH_SCRIPT = r"""
import json, os, signal, sys, threading, time
from repro.core.kernel import register_kernel
from repro.expt.csvdb import read_rows
from repro.expt.executors.localprocs import LocalProcsExecutor
from repro.expt.exptools import execute, point_key
from repro.kernels.mandel import MandelKernel

scenario, work = sys.argv[1], sys.argv[2]
master = os.getpid()


@register_kernel
class DoomedMandel(MandelKernel):
    name = "mandel_doomed"

    def init(self, ctx):
        super().init(ctx)
        if os.getpid() == master:
            return
        if scenario == "kill":
            open(os.path.join(work, f"running-{os.getpid()}"), "w").close()
            time.sleep(0.5)
        elif ctx.nthreads == 4 and os.path.exists(os.path.join(work, "poison")):
            os.kill(os.getpid(), signal.SIGKILL)


opts = {"--kernel ": ["mandel_doomed"], "--variant ": ["omp_tiled"],
        "--size ": [64], "--grain ": [16], "--iterations ": [2]}
icvs = {"OMP_NUM_THREADS=": [1, 2, 4, 8] if scenario == "kill" else [1, 2, 4]}
csv = os.path.join(work, "perf.csv")
ex = LocalProcsExecutor(2)
if scenario == "kill":
    def kill_first_running_worker():
        while True:
            marks = [f for f in os.listdir(work) if f.startswith("running-")]
            if marks:
                os.kill(int(marks[0].split("-")[1]), signal.SIGKILL)
                return
            time.sleep(0.01)

    threading.Thread(target=kill_first_running_worker, daemon=True).start()
rows = execute("easypap", icvs, opts, csv_path=csv, executor=ex)
out = {"rows": rows, "counters": ex.counters}
if scenario == "poison":
    os.remove(os.path.join(work, "poison"))
    out["redone"] = execute("easypap", icvs, opts, csv_path=csv, resume=True,
                            executor=LocalProcsExecutor(2))
out["csv"] = [[r["status"], list(point_key(r))] for r in read_rows(csv)]
print(json.dumps(out, default=str))
"""


def run_local_death_sweep(scenario: str, work: Path) -> dict:
    """Run ``LOCAL_DEATH_SCRIPT``; a sweep that hangs is killed (its
    whole process group) and fails the test."""
    env = dict(os.environ,
               PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", LOCAL_DEATH_SCRIPT, scenario, str(work)],
        env=env, cwd=REPO_ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"local-procs sweep ({scenario}) hung on a dead worker")
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


class TestLocalProcsWorkerDeath:
    def test_sigkill_worker_mid_lease_sweep_still_completes(self, tmp_path):
        """A forked worker is SIGKILLed while it runs a point: its job
        is requeued and the sweep completes without duplicates."""
        out = run_local_death_sweep("kill", tmp_path)
        assert len(out["rows"]) == 4
        assert all(r["status"] == "ok" for r in out["rows"])
        assert all(r["executor"] == "local-procs" for r in out["rows"])
        assert out["counters"]["jobs_requeued"] >= 1
        keys = [tuple(key) for _status, key in out["csv"]]
        assert len(keys) == 4 and len(set(keys)) == 4, "duplicate csv rows"

    def test_poison_point_becomes_error_row_and_resume_reruns_it(self, tmp_path):
        """A point that kills every worker that runs it is given up
        after max_requeues; the rest of the grid is measured."""
        (tmp_path / "poison").touch()
        out = run_local_death_sweep("poison", tmp_path)
        by_threads = {r["threads"]: r for r in out["rows"]}
        assert sorted(by_threads) == [1, 2, 4]
        assert by_threads[1]["status"] == by_threads[2]["status"] == "ok"
        assert by_threads[4]["status"] == "error"
        assert "gave up" in by_threads[4]["error"]
        assert out["counters"]["jobs_requeued"] == 2
        # the resume pass re-runs exactly the error row
        assert [(r["threads"], r["status"]) for r in out["redone"]] == [(4, "ok")]
        ok = [tuple(key) for status, key in out["csv"] if status == "ok"]
        assert len(ok) == 3 and len(set(ok)) == 3

    def test_workers_that_never_connect_end_in_error_rows(self, tmp_path, monkeypatch):
        """Respawns are bounded: when every forked worker dies before
        taking a job, the grid still resolves, as error rows."""
        monkeypatch.setattr(localprocs, "_local_worker", lambda *args: os._exit(1))
        ex = localprocs.LocalProcsExecutor(2, max_requeues=0)
        ex.configure(RunOptions())
        for i, (config, rep) in enumerate(sweep_points(GRID_ICVS, GRID_OPTS, 1)):
            ex.submit(SweepJob(i, config, rep))
        rows: list[dict] = []
        t = threading.Thread(target=lambda: rows.extend(ex.drain()), daemon=True)
        t.start()
        t.join(timeout=30)
        ex.close()
        assert not t.is_alive(), "drain never resolved the grid"
        assert len(rows) == 2
        assert all(r["status"] == "error" and "gave up" in r["error"] for r in rows)


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
