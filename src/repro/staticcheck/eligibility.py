"""Backend-eligibility lint over extracted regions.

These findings flag patterns that break or degrade specific backends
before any run.  Two of them are *errors* inside a parallel region
(``par``, ``reduce`` or ``dag``) and make the verdict ``race``: a lost
update on shared state is a data race in real OpenMP even though the
``sim`` backend, running tile bodies one after another, never shows it.
The others are warnings or info and leave the verdict alone (see the
severity table in ``docs/staticcheck.md``):

``procs-body``
    a worksharing body is an inline closure; the procs pool needs a
    picklable ``ctx.body(self.method)`` reference to cross the process
    boundary.
``nondeterminism``
    ``random`` / ``time`` / ``np.random`` calls inside a tile body —
    results then depend on the schedule; use the seeded RNG utilities.
``kernel-state``
    a tile body mutates ``self`` — per-process kernel instances in the
    procs backend diverge silently, and threads race on the shared one.
``captured-state``
    ``global`` / ``nonlocal`` mutation from a tile body (an error in a
    parallel region, a warning in a sequential one).
``shared-accumulator``
    (error) read-modify-write of a ``ctx.data`` scalar inside a
    parallel region; express it as a ``ctx.parallel_reduce`` instead.
``scalar-merge``
    (info) a plain scalar store in a parallel region — valid under the
    documented procs merge contract *only* when idempotent.
``fastpath-alias``
    a ``frame=`` region whose body reads a buffer beyond the rectangle
    it writes in the same buffer: the whole-frame vectorized fastpath
    would read already-overwritten cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.staticcheck.extract import RegionModel
from repro.staticcheck.sym import always_ge

__all__ = ["Finding", "eligibility_findings"]


@dataclass(frozen=True)
class Finding:
    """One diagnostic, static or dynamic (``repro.analyze`` reuses it)."""

    level: str       # "error" | "warning" | "info"
    check: str       # e.g. "captured-state", "race", "partition-overlap"
    message: str
    line: int = 0    # source line, 0 when the finding has none

    def describe(self) -> str:
        return f"[{self.level}] {self.check}: {self.message}"

    def to_dict(self) -> dict:
        return {"level": self.level, "check": self.check,
                "message": self.message, "line": self.line}


def _frame_alias(region: RegionModel, fp) -> list:
    out = []
    for w in fp.writes:
        for r in fp.reads:
            if r.buf != w.buf or r.is_unknown() or w.is_unknown():
                continue
            inside = (always_ge(r.x0, w.x0) and always_ge(r.y0, w.y0)
                      and always_ge(w.x1, r.x1) and always_ge(w.y1, r.y1))
            if not inside:
                out.append(Finding(
                    "warning", "fastpath-alias",
                    f"frame= region reads {r.describe()} beyond its own "
                    f"write {w.describe()} on the same buffer — the "
                    "whole-frame fastpath would observe overwritten cells",
                    line=r.line,
                ))
                break
    return out


def eligibility_findings(regions: list) -> list:
    findings: list = []
    seen = set()

    def add(f: Finding):
        key = (f.check, f.message)
        if key not in seen:
            seen.add(key)
            findings.append(f)

    for region in regions:
        parallel = region.parallel
        bodies = list(region.bodies) + [t.body for t in region.tasks if t.body]
        for body, fp in zip(bodies, region.footprints):
            if parallel and body.is_lambda and region.construct in ("par", "reduce"):
                add(Finding(
                    "warning", "procs-body",
                    f"{region.construct} body at line {body.line} is an inline "
                    "closure; the procs backend needs a picklable "
                    "ctx.body(self.method) reference",
                    line=body.line,
                ))
            for what, line in fp.nondet:
                add(Finding(
                    "warning", "nondeterminism",
                    f"{what}() called in a tile body (line {line}) makes the "
                    "result schedule-dependent; use the seeded RNG utilities",
                    line=line,
                ))
            for line in fp.self_stores:
                add(Finding(
                    "warning", "kernel-state",
                    f"tile body mutates self at line {line}; kernel instances "
                    "are shared across threads and duplicated across procs "
                    "workers",
                    line=line,
                ))
            for name, line in fp.captured:
                add(Finding(
                    "error" if parallel else "warning", "captured-state",
                    f"tile body mutates captured variable {name!r} at line "
                    f"{line}; use ctx.parallel_reduce or ctx.data",
                    line=line,
                ))
            if parallel:
                for key, rmw, line in fp.data_stores:
                    if rmw:
                        add(Finding(
                            "error", "shared-accumulator",
                            f"ctx.data[{key!r}] is read-modify-written at line "
                            f"{line} inside a parallel region; lost updates are "
                            "possible — express it as a ctx.parallel_reduce",
                            line=line,
                        ))
                    else:
                        add(Finding(
                            "info", "scalar-merge",
                            f"ctx.data[{key!r}] is assigned at line {line} in a "
                            "parallel region; valid under the procs scalar-merge "
                            "contract only because the store is idempotent",
                            line=line,
                        ))
            if region.frame:
                for f in _frame_alias(region, fp):
                    add(f)
    return findings
