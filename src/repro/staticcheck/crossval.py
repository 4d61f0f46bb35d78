"""Static-vs-dynamic footprint cross-validation.

The static envelope is only trustworthy if every access the runtime
*actually performs* falls inside it — the third step of the variant
verdict in :mod:`repro.analyze.lint`, where a violation is an error.
:func:`cross_validate` replays a recorded trace against a variant's
symbolic footprints: each dynamic footprint region is substituted into
the tile symbols (``TX = event.x`` ...) and must be contained in at
least one static rectangle of the same buffer and access mode.
Unknown (TOP) static bounds contain everything — an unmodeled region
constrains nothing, so the check can fail only where the analyzer
claimed knowledge.  The analyzer has no z axis: a 3D footprint
``(buf, x, y, w, h, z, d)`` is checked through its ``(x, y, w, h)``
projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CrossViolation", "CrossValResult", "cross_validate"]


@dataclass(frozen=True)
class CrossViolation:
    """One dynamic access observed outside the static envelope."""

    buf: str
    mode: str            # "read" | "write"
    rect: tuple          # (x, y, w, h)
    kind: str
    iteration: int
    tile: tuple          # (x, y, w, h) of the executing task, or None

    def describe(self) -> str:
        x, y, w, h = self.rect
        where = (f"tile x={self.tile[0]} y={self.tile[1]}"
                 if self.tile else f"kind={self.kind!r}")
        return (f"dynamic {self.mode} of {self.buf}[x={x}..{x + w}, "
                f"y={y}..{y + h}] (iteration {self.iteration}, {where}) "
                "is outside the static envelope")


@dataclass
class CrossValResult:
    kernel: str
    variant: str
    events: int = 0              # events carrying footprints
    regions_checked: int = 0     # dynamic footprint regions tested
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        name = f"{self.kernel}/{self.variant}"
        if not self.events:
            return (f"cross-validation {name}: vacuous — the trace carries "
                    "no footprints (record with easypap --check-races -t)")
        if self.ok:
            return (f"cross-validation {name}: ok ({self.regions_checked} "
                    f"dynamic regions from {self.events} events inside the "
                    "static envelope)")
        out = [f"cross-validation {name}: FAILED "
               f"({len(self.violations)} violation(s))"]
        out.extend(f"  {v.describe()}" for v in self.violations[:20])
        return "\n".join(out)


def cross_validate(report, trace) -> CrossValResult:
    """Check every dynamic footprint of ``trace`` against the static
    envelope of ``report`` (a :class:`~repro.staticcheck.report.VariantReport`)."""
    result = CrossValResult(kernel=report.kernel, variant=report.variant)
    regions = report.regions
    meta = trace.meta
    tw = meta.tile_w or 1
    th = meta.tile_h or 1
    for e in trace.events:
        if not e.reads and not e.writes:
            continue
        result.events += 1
        env = {"DIM": meta.dim}
        if e.has_tile:
            env.update(TX=e.x, TY=e.y, TW=e.w, TH=e.h,
                       TR=e.y // th, TC=e.x // tw)
        idx = e.extra.get("index")
        if isinstance(idx, int):
            env["IT"] = idx
        candidates = [r for r in regions if r.kind == e.kind] or regions
        for mode, label, dyn in (("r", "read", e.reads), ("w", "write", e.writes)):
            static_rects = [
                rect
                for region in candidates
                for fp in region.footprints
                for rect in fp.rects(mode)
            ]
            for buf, x, y, w, h, *_depth in dyn:
                result.regions_checked += 1
                rects = [s for s in static_rects if s.buf == buf]
                if any(s.contains_numeric(x, y, w, h, env) for s in rects):
                    continue
                result.violations.append(CrossViolation(
                    buf=buf, mode=label, rect=(x, y, w, h), kind=e.kind,
                    iteration=e.iteration,
                    tile=(e.x, e.y, e.w, e.h) if e.has_tile else None,
                ))
    return result
