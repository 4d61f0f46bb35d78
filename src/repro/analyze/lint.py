"""One verdict per kernel variant: the static proof, confirmed by a run.

:func:`lint_results` gives each variant its verdict in three steps:

1. **static proof** — :func:`repro.staticcheck.check_variant`, the only
   source-level pass: symbolic footprints, proven races, and the
   eligibility findings (shared state mutated from a parallel region is
   an error);
2. **traced run** — a short instrumented run (two iterations at a small
   size, not the kernel's real workload) with footprints always
   recorded, checked for

   * *tile-partition completeness/disjointness* — within one region,
     the tiles processed must not overlap (an error: the same pixels
     computed twice) and, unless the variant is declared lazy, must
     cover the whole image (a gap is a warning);
   * *happens-before races* (:mod:`repro.analyze.races`), each an error;
   * *double-buffer discipline* — tasks writing a buffer that concurrent
     tasks of the same region read (the "wrote ``cur`` instead of
     ``next``" bug), derived from the read-write races;
3. **cross-validation** — :func:`repro.staticcheck.cross_validate` on
   each rank's trace: a dynamic access outside the static envelope is
   an error.

The verdict is ``race`` if any step found an error, otherwise the
static verdict (``clean`` or ``unknown``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analyze.footprint import tasks_by_region
from repro.analyze.races import RaceCheckResult, check_races
from repro.core.config import RunConfig
from repro.core.kernel import Kernel, get_kernel
from repro.staticcheck import Finding, VariantReport, check_variant, cross_validate
from repro.trace.events import Trace

__all__ = [
    "Finding",
    "LintResult",
    "lint_variant",
    "lint_results",
]


@dataclass
class LintResult:
    """The verdict for one kernel variant and the findings behind it."""

    kernel: str
    variant: str
    static: VariantReport
    findings: list[Finding] = field(default_factory=list)
    race_results: list[RaceCheckResult] = field(default_factory=list)
    #: one line per traced rank and step: the race and cross-validation
    #: summaries
    summaries: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.level == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.level == "warning"]

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def verdict(self) -> str:
        return "race" if self.errors else self.static.verdict

    def describe(self) -> str:
        status = "ok" if self.clean else (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        out = [f"{self.kernel}/{self.variant}: {status} (verdict: {self.verdict})"]
        out.extend(f"  static: unknown — {reason}" for reason in self.static.unknowns)
        out.extend("  " + line for line in self.summaries)
        out.extend("  " + f.describe() for f in self.findings)
        return "\n".join(out)


# --------------------------------------------------------------------------
# Dynamic checks (over an instrumented trace)
# --------------------------------------------------------------------------


def partition_findings(trace: Trace, *, lazy: bool = False) -> list[Finding]:
    """Check, per region, that processed tiles are disjoint and cover
    the image.  Regions whose items are not tiles (rows, phases, GPU
    launches) are skipped."""
    dim = trace.meta.dim
    if dim <= 0:
        return []
    dim_y = int(trace.meta.extra.get("dim_y", dim)) or dim
    findings: list[Finding] = []
    for region in tasks_by_region(trace):
        tiled = [t for t in region.tasks if t.event.has_tile]
        if not tiled or len(tiled) != len(region.tasks):
            continue
        deps_domain = str(trace.meta.extra.get("domain", "grid")) == "wavefront"
        ordered = region.rmode == "dag" or (
            deps_domain and region.rmode == "seq"
        )
        cov = np.zeros((dim_y, dim), dtype=np.int32)
        for node in tiled:
            e = node.event
            cov[e.y : e.y + e.h, e.x : e.x + e.w] += 1
        if ordered:
            # dependency-ordered regions (wavefront domains, task DAGs)
            # and sequential loops over dependency-carrying domains
            # legitimately revisit blocks — ordered re-writes are the
            # whole point; concurrent overlap is the race detector's
            # job.  Only a coverage gap is worth flagging here.
            if not lazy and (cov == 0).any():
                y, x = map(int, np.argwhere(cov == 0)[0])
                findings.append(
                    Finding(
                        "warning",
                        "partition-gap",
                        f"region {region.region} (iteration {region.iteration}): "
                        f"pixel (x={x}, y={y}) is covered by no tile — the "
                        "partition misses parts of the image",
                    )
                )
            continue
        if (cov > 1).any():
            y, x = map(int, np.argwhere(cov > 1)[0])
            pair = [n for n in tiled
                    if n.event.x <= x < n.event.x + n.event.w
                    and n.event.y <= y < n.event.y + n.event.h][:2]
            names = " and ".join(n.describe() for n in pair)
            findings.append(
                Finding(
                    "error",
                    "partition-overlap",
                    f"region {region.region} (iteration {region.iteration}): "
                    f"{names} both cover pixel (x={x}, y={y}) — tiles of one "
                    "region must be disjoint",
                )
            )
        elif not lazy and (cov == 0).any():
            y, x = map(int, np.argwhere(cov == 0)[0])
            findings.append(
                Finding(
                    "warning",
                    "partition-gap",
                    f"region {region.region} (iteration {region.iteration}): "
                    f"pixel (x={x}, y={y}) is covered by no tile — the "
                    "partition misses parts of the image",
                )
            )
    return findings


def race_findings(rr: RaceCheckResult) -> list[Finding]:
    """Fold race reports into findings, adding one double-buffer
    diagnostic per buffer whose read/write overlap looks like the
    'wrote cur instead of next' bug."""
    findings = [Finding("error", "race", race.describe()) for race in rr.races]
    flagged: set[str] = set()
    for race in rr.races:
        if (
            race.kind == "read-write"
            and race.rmode in ("par", "reduce")
            and race.buf not in flagged
        ):
            flagged.add(race.buf)
            findings.append(
                Finding(
                    "error",
                    "double-buffer",
                    f"tasks write buffer {race.buf!r} while concurrent tasks "
                    "read it — double-buffer discipline: write into the "
                    "paired buffer and swap between iterations",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def lint_results(
    kernel: Kernel,
    variant_name: str,
    results,
    *,
    mpi_np: int = 0,
    static: VariantReport | None = None,
) -> LintResult:
    """The verdict over already-recorded run results (one per traced
    rank): the static proof (``static``, computed here when not given),
    then the partition, race and cross-validation checks on each trace."""
    if static is None:
        static = check_variant(kernel, variant_name)
    result = LintResult(kernel=kernel.name, variant=variant_name, static=static)
    result.findings.extend(
        Finding("error", "static-race", race.describe()) for race in static.races
    )
    result.findings.extend(f for f in static.findings if f.level != "info")
    lazy = variant_name in kernel.lazy_variants or mpi_np > 0
    for r in results:
        if r.trace is None:
            continue
        prefix = f"[{r.trace.meta.label}] " if mpi_np else ""
        result.findings.extend(partition_findings(r.trace, lazy=lazy))
        rr = check_races(r.trace)
        result.race_results.append(rr)
        result.findings.extend(race_findings(rr))
        cv = cross_validate(static, r.trace)
        result.findings.extend(
            Finding("error", "crossval", v.describe()) for v in cv.violations
        )
        result.summaries.append(prefix + rr.describe().splitlines()[0].rstrip(":"))
        result.summaries.append(prefix + cv.describe().splitlines()[0])
    return result


def lint_variant(
    kernel_name: str,
    variant_name: str,
    *,
    dim: int = 64,
    tile: int = 16,
    iterations: int = 2,
    nthreads: int = 4,
    schedule: str = "dynamic",
    arg: str | None = None,
    mpi_np: int = 0,
    seed: int | None = 42,
    model=None,
) -> LintResult:
    """The verdict of one variant: static proof + a short traced run.

    MPI variants run with every rank traced (``--debug M``) and each
    rank's trace is analyzed; gap warnings are suppressed because a rank
    legitimately computes only its own band/block.
    """
    from repro.core.engine import run

    kernel = get_kernel(kernel_name)
    config = RunConfig(
        kernel=kernel_name,
        variant=variant_name,
        dim=dim,
        tile_w=tile,
        tile_h=tile,
        iterations=iterations,
        nthreads=nthreads,
        schedule=schedule,
        arg=arg,
        seed=seed,
        mpi_np=mpi_np,
        # the analysis needs determinism, not wall-clock honesty
        mpi_backend="inproc",
        debug="M" if mpi_np else "",
        trace=True,
        footprints=True,
    )
    run_result = run(config, model=model)
    return lint_results(
        kernel, variant_name, run_result.rank_results or [run_result], mpi_np=mpi_np
    )
