"""Tests for the message-passing substrate."""

import threading

import numpy as np
import pytest

from repro.errors import MpiError
from repro.mpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    default_recv_timeout,
    run_world,
)


def world_run(size, fn, timeout=10.0):
    return run_world(size, fn, recv_timeout=timeout)


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm, rank):
            if rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = world_run(2, main)
        assert results[1] == {"a": 7, "b": 3.14}

    def test_numpy_payload_is_copied(self):
        def main(comm, rank):
            if rank == 0:
                data = np.arange(10)
                comm.send(data, dest=1)
                data[:] = -1  # mutation must not reach the receiver
                return None
            got = comm.recv(source=0)
            return got.tolist()

        results = world_run(2, main)
        assert results[1] == list(range(10))

    def test_tag_matching_out_of_order(self):
        def main(comm, rank):
            if rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        results = world_run(2, main)
        assert results[1] == ("first", "second")

    def test_any_source_any_tag(self):
        def main(comm, rank):
            if rank == 0:
                got = {comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(2)}
                return got
            comm.send(f"from-{rank}", dest=0, tag=rank)
            return None

        results = world_run(3, main)
        assert results[0] == {"from-1", "from-2"}

    def test_sendrecv_symmetric_exchange(self):
        def main(comm, rank):
            peer = 1 - rank
            return comm.sendrecv(f"hello-{rank}", dest=peer, source=peer)

        results = world_run(2, main)
        assert results == ["hello-1", "hello-0"]

    def test_bad_destination(self):
        def main(comm, rank):
            comm.send("x", dest=5)

        with pytest.raises(MpiError):
            world_run(2, main)

    def test_recv_timeout_is_deadlock_diagnosis(self):
        def main(comm, rank):
            if rank == 0:
                comm.recv(source=1)  # never sent

        with pytest.raises(MpiError, match="deadlock|failed"):
            world_run(2, main, timeout=0.2)


class TestCollectives:
    def test_bcast(self):
        def main(comm, rank):
            data = {"key": [1, 2, 3]} if rank == 0 else None
            return comm.bcast(data, root=0)

        results = world_run(4, main)
        assert all(r == {"key": [1, 2, 3]} for r in results)

    def test_scatter_gather_roundtrip(self):
        def main(comm, rank):
            data = [i * i for i in range(comm.size)] if rank == 0 else None
            mine = comm.scatter(data, root=0)
            assert mine == rank * rank
            return comm.gather(mine * 10, root=0)

        results = world_run(4, main)
        assert results[0] == [0, 10, 40, 90]
        assert results[1] is None

    def test_scatter_wrong_length(self):
        def main(comm, rank):
            data = [1, 2] if rank == 0 else None
            comm.scatter(data, root=0)

        with pytest.raises(MpiError):
            world_run(3, main)

    def test_allgather(self):
        def main(comm, rank):
            return comm.allgather(rank + 1)

        results = world_run(3, main)
        assert all(r == [1, 2, 3] for r in results)

    def test_reduce_and_allreduce(self):
        import operator

        def main(comm, rank):
            s = comm.reduce(rank + 1, op=operator.add, root=0)
            a = comm.allreduce(rank + 1, op=operator.add)
            return (s, a)

        results = world_run(4, main)
        assert results[0] == (10, 10)
        assert results[1][0] is None and results[1][1] == 10

    def test_barrier_orders_phases(self):
        import threading

        order = []
        lock = threading.Lock()

        def main(comm, rank):
            with lock:
                order.append(("pre", rank))
            comm.barrier()
            with lock:
                order.append(("post", rank))

        world_run(3, main)
        pre = [i for i, (p, _) in enumerate(order) if p == "pre"]
        post = [i for i, (p, _) in enumerate(order) if p == "post"]
        assert max(pre) < min(post)

    def test_nonuniform_roots(self):
        def main(comm, rank):
            return comm.bcast(f"from-2" if rank == 2 else None, root=2)

        results = world_run(3, main)
        assert all(r == "from-2" for r in results)

    def test_collectives_interleaved_with_pt2pt(self):
        def main(comm, rank):
            if rank == 0:
                comm.send("noise", dest=1, tag=0)
            total = comm.allreduce(1, op=lambda a, b: a + b)
            if rank == 1:
                assert comm.recv(source=0, tag=0) == "noise"
            return total

        results = world_run(2, main)
        assert results == [2, 2]


class TestWorld:
    def test_rank_errors_aggregated(self):
        def main(comm, rank):
            if rank == 1:
                raise ValueError("kaboom")
            # other ranks may block on a collective; keep them terminating
            return rank

        with pytest.raises(MpiError, match="rank 1.*kaboom"):
            world_run(3, main)

    def test_stats_counted(self):
        def main(comm, rank):
            if rank == 0:
                comm.send([1, 2, 3], dest=1)
            else:
                comm.recv(source=0)
            return comm.stats

        stats = world_run(2, main)
        assert stats[0].messages_sent == 1
        assert stats[0].bytes_sent > 0
        assert stats[1].messages_received == 1

    def test_bad_world_size(self):
        with pytest.raises(MpiError):
            run_world(0, lambda comm, rank: rank)


class TestRecvTimeoutConfig:
    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MPI_RECV_TIMEOUT", "7.5")
        assert default_recv_timeout() == 7.5

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MPI_RECV_TIMEOUT", "soon")
        with pytest.raises(MpiError, match="REPRO_MPI_RECV_TIMEOUT"):
            default_recv_timeout()

    def test_unset_env_gives_60s(self, monkeypatch):
        monkeypatch.delenv("REPRO_MPI_RECV_TIMEOUT", raising=False)
        assert default_recv_timeout() == 60.0

    def test_expiry_raises_deadlock_error_with_pending_state(self):
        sent, expired = threading.Event(), threading.Event()

        def fn(comm, rank):
            if rank == 0:
                comm.send("mismatched", dest=1, tag=9)
                sent.set()
                # stay active until rank 1's receive expired: starve the analyzer
                expired.wait(timeout=30)
                return "done"
            sent.wait(timeout=30)  # the mismatched frame is in the lanes
            try:
                return comm.recv(source=0, tag=5)
            finally:
                expired.set()

        with pytest.raises(MpiError) as ei:
            run_world(2, fn, recv_timeout=0.2)
        msg = str(ei.value)
        assert "timed out" in msg
        assert "unmatched frames drained from its lanes" in msg
        assert "(source=0, tag=9)" in msg
