"""OpenMP loop-scheduling policies.

These model the ``schedule(...)`` clauses students experiment with in
EASYPAP (paper Fig. 4): ``static``, ``static,k``, ``dynamic,k``,
``guided[,k]`` and OpenMP 5's ``nonmonotonic:dynamic`` (implemented, as
in LLVM's runtime, as a static initial distribution corrected by work
stealing).

A policy is plain data, its kind and chunk size; the one rule that
turns it into chunks and hands them to CPUs, simulated or real, lives
in :mod:`repro.sched.claim`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ScheduleError

__all__ = [
    "SchedulePolicy",
    "StaticSchedule",
    "DynamicSchedule",
    "GuidedSchedule",
    "NonMonotonicDynamic",
    "parse_schedule",
    "SCHEDULE_NAMES",
]


class SchedulePolicy(ABC):
    """Base class: a schedule clause as plain data (kind and chunk)."""

    @abstractmethod
    def spec(self) -> str:
        """The OMP_SCHEDULE string for this policy instance."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()!r})"


def _check_chunk(chunk: int | None) -> None:
    if chunk is not None and chunk < 1:
        raise ScheduleError(f"chunk size must be >= 1, got {chunk}")


class StaticSchedule(SchedulePolicy):
    """``schedule(static[,k])``.

    Without a chunk size, the iteration space is split into ``ncpus``
    nearly-equal contiguous blocks (one per thread).  With chunk ``k``,
    blocks of ``k`` iterations are dealt round-robin.
    """

    def __init__(self, chunk: int | None = None):
        _check_chunk(chunk)
        self.chunk = chunk

    def spec(self) -> str:
        return "static" if self.chunk is None else f"static,{self.chunk}"


class DynamicSchedule(SchedulePolicy):
    """``schedule(dynamic[,k])`` — a central FIFO of fixed-size chunks."""

    def __init__(self, chunk: int = 1):
        _check_chunk(chunk)
        self.chunk = chunk

    def spec(self) -> str:
        return f"dynamic,{self.chunk}" if self.chunk != 1 else "dynamic"


class GuidedSchedule(SchedulePolicy):
    """``schedule(guided[,k])`` — decreasing chunk sizes, never below ``k``
    (except the final chunk).

    Chunk size follows LLVM's guided implementation,
    ``ceil(remaining / (2 * ncpus))`` — the factor 2 keeps initial chunks
    moderate, which is what makes guided competitive on irregular loops
    like mandel (paper Fig. 6)."""

    def __init__(self, chunk: int = 1):
        _check_chunk(chunk)
        self.chunk = chunk

    def spec(self) -> str:
        return f"guided,{self.chunk}" if self.chunk != 1 else "guided"


class NonMonotonicDynamic(SchedulePolicy):
    """``schedule(nonmonotonic:dynamic[,k])``.

    Modeled after LLVM's implementation, as described in the paper
    (Fig. 4c): iterations are first distributed *statically* in
    contiguous per-thread blocks; a thread that exhausts its block
    steals chunks of ``k`` iterations from the victim with the most
    remaining work.
    """

    def __init__(self, chunk: int = 1, steal_half: bool = False):
        _check_chunk(chunk)
        self.chunk = chunk
        #: when True, a thief takes half of the victim's remaining block
        #: instead of one chunk (ablation knob, bench ABL2).
        self.steal_half = steal_half

    def spec(self) -> str:
        base = "nonmonotonic:dynamic"
        return f"{base},{self.chunk}" if self.chunk != 1 else base


SCHEDULE_NAMES = ("static", "dynamic", "guided", "nonmonotonic:dynamic")


def parse_schedule(spec: str) -> SchedulePolicy:
    """Parse an ``OMP_SCHEDULE``-style string into a policy object.

    >>> parse_schedule("dynamic,2").chunk
    2
    >>> parse_schedule("static").chunk is None
    True
    """
    if not spec or not isinstance(spec, str):
        raise ScheduleError(f"empty schedule spec: {spec!r}")
    text = spec.strip().lower()
    # strip the (ignored) monotonic modifier, keep nonmonotonic meaningful
    nonmonotonic = False
    if ":" in text:
        modifier, _, rest = text.partition(":")
        modifier = modifier.strip()
        if modifier == "nonmonotonic":
            nonmonotonic = True
        elif modifier != "monotonic":
            raise ScheduleError(f"unknown schedule modifier {modifier!r} in {spec!r}")
        text = rest.strip()
    kind, _, chunk_s = text.partition(",")
    kind = kind.strip()
    chunk: int | None = None
    if chunk_s:
        try:
            chunk = int(chunk_s)
        except ValueError:
            raise ScheduleError(f"bad chunk size {chunk_s!r} in {spec!r}") from None
    if kind == "static":
        if nonmonotonic:
            raise ScheduleError("nonmonotonic applies to dynamic only")
        return StaticSchedule(chunk)
    if kind == "dynamic":
        if nonmonotonic:
            return NonMonotonicDynamic(chunk if chunk is not None else 1)
        return DynamicSchedule(chunk if chunk is not None else 1)
    if kind == "guided":
        if nonmonotonic:
            raise ScheduleError(
                "nonmonotonic applies to dynamic only "
                "(guided work-stealing is not modelled)"
            )
        return GuidedSchedule(chunk if chunk is not None else 1)
    raise ScheduleError(f"unknown schedule kind {kind!r} in {spec!r}")
