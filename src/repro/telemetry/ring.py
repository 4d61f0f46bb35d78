"""Bounded shared-memory ring buffers for cross-process telemetry.

Each procs worker owns one single-producer/single-consumer ring lane:
a monotonic ``write_count`` cell in a shared int64 header plus ``cap``
fixed-width float64 record slots.  A writer *never blocks and never
waits*: it overwrites slot ``count % cap`` and bumps its count, so a
full ring silently recycles its oldest slot.  The master drains lanes
only at quiescent points (between regions, at iteration boundaries),
reconstructs each record's sequence number from the count arithmetic,
and reports everything that was overwritten as *dropped events* —
loss is bounded, observable, and never a deadlock.

The functions here operate on plain numpy arrays; the procs pool maps
them onto POSIX shared memory, and the in-process tests map them onto
ordinary arrays.  Record layout (10 float64 lanes)::

    [kind, seq, f0, f1, f2, f3, f4, f5, f6, f7]

    kind EXEC      f0=pos   f1=start  f2=end     (wall-clock, region-relative)
    kind FP_READ   f0=pos   f1=buf_id f2=x f3=y f4=w f5=h f6=z f7=d
    kind FP_WRITE  f0=pos   f1=buf_id f2=x f3=y f4=w f5=h f6=z f7=d

``(z, d)`` is the optional depth extent of 3D footprint regions (see
:mod:`repro.core.access`); 2D regions ship the ``(0, 1)`` default.

``pos`` is the per-region task index; ``buf_id`` indexes a per-worker
string-interning table shipped back over the worker's result pipe
(strings cannot cross a numeric ring).
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "RECORD_WIDTH",
    "KIND_EXEC",
    "KIND_FP_READ",
    "KIND_FP_WRITE",
    "RING_CAP_ENV",
    "RING_MAX",
    "ring_capacity",
    "RingWriter",
    "drain_lane",
]

RECORD_WIDTH = 10
KIND_EXEC = 1
KIND_FP_READ = 2
KIND_FP_WRITE = 3

#: env override for the per-worker ring capacity (records); tests use a
#: tiny value to force overflow deterministically
RING_CAP_ENV = "REPRO_TELEMETRY_RING_CAP"
#: hard upper bound on the auto-sized per-worker capacity
RING_MAX = 1 << 16


def ring_capacity(n_items: int, footprints: bool) -> int:
    """Per-worker slot count for a region of ``n_items`` tasks.

    Sized so a region's worth of events fits without wrapping in the
    common case (footprints multiply the record count by the number of
    declared accesses, bounded here at a generous per-task estimate);
    ``REPRO_TELEMETRY_RING_CAP`` overrides for backpressure testing.
    """
    env = os.environ.get(RING_CAP_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{RING_CAP_ENV}={env!r} is not an integer") from None
    per_task = 65 if footprints else 1
    return max(1024, min(n_items * per_task, RING_MAX))


class RingWriter:
    """Single-producer view of one worker's lane. Never blocks."""

    __slots__ = ("_header", "_payload", "_worker", "_cap", "_count")

    def __init__(self, header: np.ndarray, payload: np.ndarray, worker: int) -> None:
        self._header = header
        self._payload = payload[worker]
        self._worker = worker
        self._cap = payload.shape[1]
        self._count = int(header[worker])

    def emit(
        self,
        kind: int,
        f0: float = 0.0,
        f1: float = 0.0,
        f2: float = 0.0,
        f3: float = 0.0,
        f4: float = 0.0,
        f5: float = 0.0,
        f6: float = 0.0,
        f7: float = 0.0,
    ) -> None:
        count = self._count
        slot = self._payload[count % self._cap]
        slot[0] = kind
        slot[1] = count
        slot[2] = f0
        slot[3] = f1
        slot[4] = f2
        slot[5] = f3
        slot[6] = f4
        slot[7] = f5
        slot[8] = f6
        slot[9] = f7
        self._count = count + 1
        self._header[self._worker] = self._count  # publish after the payload


def drain_lane(
    header: np.ndarray, payload: np.ndarray, worker: int, consumed: int
) -> tuple[np.ndarray, int, int]:
    """Drain one worker's lane from sequence ``consumed`` onwards.

    Returns ``(records, new_consumed, dropped)`` where ``records`` is an
    ``(n, RECORD_WIDTH)`` copy in sequence order, ``new_consumed`` the
    next sequence number to resume from, and ``dropped`` how many events
    were overwritten before this drain could observe them.

    Must only be called at quiescent points (the lane's producer is not
    concurrently writing) — the procs master drains between regions and
    at iteration boundaries, which guarantees this.
    """
    total = int(header[worker])
    avail = total - consumed
    if avail <= 0:
        return np.empty((0, RECORD_WIDTH)), total, 0
    cap = payload.shape[1]
    dropped = max(0, avail - cap)
    start = total - min(avail, cap)
    seqs = np.arange(start, total)
    records = payload[worker, seqs % cap].copy()
    return records, total, dropped
