"""Tests for the MPI wait-for-graph deadlock detector.

The verdict cases shared by both ways of hosting ranks run on threads
(``run_world``) and on processes (``run_world_procs``); their programs
live at module level so rank processes can unpickle them by reference.
"""

import time

import pytest

from repro.analyze.deadlock import ANY, PendingMsg, RankWait, diagnose
from repro.errors import DeadlockError, MpiError
from repro.mpi.comm import ANY_SOURCE, run_world
from repro.mpi.substrate import live_mpi_blocks, run_world_procs, shutdown_mpi_pools

WORLDS = [pytest.param(run_world, id="inproc"), pytest.param(run_world_procs, id="procs")]


@pytest.fixture(autouse=True, scope="module")
def _shutdown_pools_at_end():
    yield
    shutdown_mpi_pools()
    assert live_mpi_blocks() == []


def world_run(size, fn, timeout=10.0):
    return run_world(size, fn, recv_timeout=timeout)


def _prog_cycle(comm, rank):
    return comm.recv(source=(rank + 1) % comm.size)


def _prog_finished_peer(comm, rank):
    if rank == 0:
        return comm.recv(source=1)  # rank 1 terminates without sending
    return "done"


def _prog_late_send(comm, rank):
    if rank == 0:
        return comm.recv(source=1)
    time.sleep(0.4)  # several poll intervals of apparent silence
    comm.send("late", dest=0)
    return "sent"


class TestDetectorInWorld:
    @pytest.mark.parametrize("world", WORLDS)
    def test_two_rank_recv_cycle_reported_as_cycle(self, world):
        """recv/recv head-to-head: diagnosed as a cycle naming both
        ranks, long before the hard timeout would fire."""
        with pytest.raises(MpiError, match=r"cyclic wait among ranks") as exc:
            world(2, _prog_cycle, recv_timeout=30.0)
        msg = str(exc.value)
        assert "deadlock detected" in msg
        assert "rank 0 blocked in recv(source=1" in msg
        assert "rank 1 blocked in recv(source=0" in msg

    def test_three_rank_cycle(self):
        def main(comm, rank):
            comm.recv(source=(rank + 1) % comm.size)

        with pytest.raises(MpiError, match=r"cyclic wait among ranks"):
            world_run(3, main, timeout=30.0)

    @pytest.mark.parametrize("world", WORLDS)
    def test_wait_on_finished_rank(self, world):
        with pytest.raises(MpiError, match=r"rank 1 has already finished"):
            world(2, _prog_finished_peer, recv_timeout=30.0)

    def test_unmatched_message_is_reported(self):
        """A send with the wrong tag shows up as a near-miss in the
        report instead of vanishing silently."""

        def main(comm, rank):
            if rank == 1:
                comm.send("payload", dest=0, tag=5)
            else:
                comm.recv(source=1, tag=7)

        with pytest.raises(MpiError, match=r"from rank 1 with tag 5"):
            world_run(2, main, timeout=30.0)

    def test_any_source_starved(self):
        def main(comm, rank):
            if rank == 0:
                comm.recv(source=ANY_SOURCE)

        with pytest.raises(MpiError, match=r"every other rank is blocked or finished"):
            world_run(2, main, timeout=30.0)

    def test_deadlock_error_type_and_report(self):
        def main(comm, rank):
            comm.recv(source=1 - rank)

        with pytest.raises(MpiError) as exc:
            world_run(2, main, timeout=30.0)
        cause = exc.value.__cause__
        assert isinstance(cause, DeadlockError)
        assert cause.report.kind == "cycle"
        assert set(cause.report.cycle) == {0, 1}

    def test_matched_sendrecv_stays_clean(self):
        """The symmetric exchange must not be flagged: sends are
        buffered, so sendrecv/sendrecv always completes."""

        def main(comm, rank):
            peer = 1 - rank
            out = []
            for i in range(20):
                out.append(comm.sendrecv((rank, i), dest=peer, source=peer))
            return out

        results = world_run(2, main, timeout=10.0)
        assert results[0] == [(1, i) for i in range(20)]
        assert results[1] == [(0, i) for i in range(20)]

    @pytest.mark.parametrize("world", WORLDS)
    def test_late_sender_not_flagged(self, world):
        """A slow-but-alive sender must not be misdiagnosed: rank 1 is
        computing (not blocked), so no verdict may be produced."""
        assert world(2, _prog_late_send, recv_timeout=10.0) == ["late", "sent"]


class TestDiagnoseFunction:
    def test_no_verdict_when_chain_hits_active_rank(self):
        waits = {0: RankWait(0, 1, ANY)}  # rank 1 not blocked
        assert diagnose(0, waits, frozenset(), 2) is None

    def test_cycle_through_self_only(self):
        # 1 <-> 2 cycle exists, but rank 0 waits on it without being in it
        waits = {
            0: RankWait(0, 1, ANY),
            1: RankWait(1, 2, ANY),
            2: RankWait(2, 1, ANY),
        }
        report = diagnose(1, waits, frozenset(), 3)
        assert report is not None and report.kind == "cycle"
        assert diagnose(0, waits, frozenset(), 3) is None  # not in the cycle

    def test_self_receive(self):
        waits = {0: RankWait(0, 0, 3)}
        report = diagnose(0, waits, frozenset(), 2)
        assert report is not None and report.cycle == (0, 0)

    def test_any_source_needs_all_peers_stuck(self):
        waits = {0: RankWait(0, ANY, ANY), 1: RankWait(1, 0, ANY)}
        assert diagnose(0, waits, frozenset(), 3) is None  # rank 2 active
        report = diagnose(0, waits, frozenset({2}), 3)
        assert report is not None and report.kind == "starved"

    def test_finished_peer_reports_unmatched(self):
        waits = {0: RankWait(0, 1, 7)}
        report = diagnose(
            0, waits, frozenset({1}), 2, unmatched=(PendingMsg(1, 5),)
        )
        assert report is not None and report.kind == "finished-peer"
        assert "with tag 5" in report.describe()

    def test_single_rank_any_source_never_starved(self):
        waits = {0: RankWait(0, ANY, ANY)}
        assert diagnose(0, waits, frozenset(), 1) is None
