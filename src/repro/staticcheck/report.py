"""Report model for the static checker: human text + JSON.

The JSON schema (``"easypap_staticcheck": 1``) is documented in
``docs/staticcheck.md``; it is the machine-readable artifact the CI
static-check matrix uploads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["VariantReport", "StaticCheckReport", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_VERDICT_ORDER = {"race": 0, "unknown": 1, "clean": 2}


@dataclass
class VariantReport:
    """Static verdict for one kernel/variant pair."""

    kernel: str
    variant: str
    verdict: str                     # "clean" | "race" | "unknown"
    races: list = field(default_factory=list)      # [StaticRace]
    findings: list = field(default_factory=list)   # [Finding]
    unknowns: list = field(default_factory=list)   # [reason]
    regions: list = field(default_factory=list)    # [RegionModel] (analyzed)
    file: str = ""
    elapsed_ms: float = 0.0

    @property
    def name(self) -> str:
        return f"{self.kernel}/{self.variant}"

    def describe(self, verbose: bool = False) -> str:
        head = f"{self.name}: {self.verdict.upper() if self.verdict == 'race' else self.verdict}"
        if self.verdict == "clean":
            nregions = len(self.regions)
            head += f" ({nregions} region{'s' if nregions != 1 else ''})"
        out = [head]
        for race in self.races:
            out.extend("  " + line for line in race.describe().splitlines())
        if self.verdict == "unknown":
            for reason in self.unknowns:
                out.append(f"  - {reason}")
        for f in self.findings:
            if verbose or f.level != "info":
                out.append(f"  {f.describe()}")
        return "\n".join(out)

    def footprint_lines(self) -> list:
        """Human rendering of the statically inferred halos, per region."""
        out = []
        for region in self.regions:
            rects_r, rects_w = [], []
            for fp in region.footprints:
                rects_r.extend(r.describe() for r in fp.reads)
                rects_w.extend(w.describe() for w in fp.writes)
            rects_r = list(dict.fromkeys(rects_r))
            rects_w = list(dict.fromkeys(rects_w))
            out.append(f"{region.construct} region (kind={region.kind!r}, "
                       f"line {region.line}):")
            for r in rects_r:
                out.append(f"  read  {r}")
            for w in rects_w:
                out.append(f"  write {w}")
            if not rects_r and not rects_w:
                out.append("  (no buffer accesses inferred)")
        return out

    def to_dict(self) -> dict:
        reads, writes = [], []
        for region in self.regions:
            for fp in region.footprints:
                reads.extend(r.describe() for r in fp.reads)
                writes.extend(w.describe() for w in fp.writes)
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "verdict": self.verdict,
            "races": [r.to_dict() for r in self.races],
            "findings": [f.to_dict() for f in self.findings],
            "unknowns": list(self.unknowns),
            "regions": [
                {
                    "construct": region.construct,
                    "kind": region.kind,
                    "line": region.line,
                    "unknown": list(region.unknown),
                }
                for region in self.regions
            ],
            "footprints": {
                "reads": sorted(set(reads)),
                "writes": sorted(set(writes)),
            },
            "file": self.file,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass
class StaticCheckReport:
    """All variant reports of one ``staticcheck`` invocation."""

    reports: list = field(default_factory=list)    # [VariantReport]
    counters: dict = field(default_factory=dict)

    @property
    def any_race(self) -> bool:
        return any(r.verdict == "race" for r in self.reports)

    def sorted(self) -> list:
        return sorted(
            self.reports,
            key=lambda r: (_VERDICT_ORDER.get(r.verdict, 3), r.kernel, r.variant),
        )

    def describe(self, verbose: bool = False) -> str:
        out = [r.describe(verbose) for r in self.sorted()]
        races = sum(1 for r in self.reports if r.verdict == "race")
        unknown = sum(1 for r in self.reports if r.verdict == "unknown")
        clean = sum(1 for r in self.reports if r.verdict == "clean")
        out.append(
            f"static-check: {len(self.reports)} variant(s): {clean} clean, "
            f"{races} race, {unknown} unknown"
        )
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "easypap_staticcheck": SCHEMA_VERSION,
            "reports": [r.to_dict() for r in self.sorted()],
            "counters": dict(self.counters),
        }

    def find(self, kernel: str, variant: str) -> VariantReport | None:
        for r in self.reports:
            if r.kernel == kernel and r.variant == variant:
                return r
        return None
