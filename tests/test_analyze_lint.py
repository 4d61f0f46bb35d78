"""Tests for the variant verdict: static proof, partition and
double-buffer checks, cross-validation."""

import dataclasses

from repro.analyze.lint import (
    lint_results,
    lint_variant,
    partition_findings,
)
from repro.core.engine import run
from repro.core.kernel import get_kernel
from repro.trace.events import Trace, TraceEvent, TraceMeta
from tests.conftest import make_config


def region_trace(tiles, dim=32, rmode="par"):
    """A synthetic one-region trace with the given (x, y, w, h) tiles."""
    events = [
        TraceEvent(
            iteration=1, cpu=0, start=float(i), end=i + 0.5,
            x=x, y=y, w=w, h=h,
            extra={"index": i, "region": 0, "rmode": rmode},
        )
        for i, (x, y, w, h) in enumerate(tiles)
    ]
    return Trace(TraceMeta(kernel="k", variant="v", dim=dim), events)


class TestPartitionChecks:
    def test_full_partition_is_clean(self):
        tiles = [(x, y, 16, 16) for y in (0, 16) for x in (0, 16)]
        assert partition_findings(region_trace(tiles)) == []

    def test_overlap_is_error_naming_both_tasks(self):
        tiles = [(0, 0, 16, 32), (16, 0, 16, 32), (8, 0, 16, 32)]
        findings = partition_findings(region_trace(tiles))
        assert [f.level for f in findings] == ["error"]
        assert findings[0].check == "partition-overlap"
        assert "task #0" in findings[0].message
        assert "task #2" in findings[0].message
        assert "pixel (x=8, y=0)" in findings[0].message

    def test_gap_is_warning(self):
        tiles = [(0, 0, 16, 32), (16, 0, 16, 16)]  # bottom-right missing
        findings = partition_findings(region_trace(tiles))
        assert [f.level for f in findings] == ["warning"]
        assert findings[0].check == "partition-gap"
        assert "pixel (x=16, y=16)" in findings[0].message

    def test_lazy_suppresses_gap_not_overlap(self):
        gap = [(0, 0, 16, 32)]
        assert partition_findings(region_trace(gap), lazy=True) == []
        overlap = [(0, 0, 16, 32), (8, 0, 16, 32)]
        assert len(partition_findings(region_trace(overlap), lazy=True)) == 1

    def test_non_tile_regions_skipped(self):
        t = region_trace([(0, 0, 16, 32)])
        for e in t.events:
            object.__setattr__(e, "x", -1)
            object.__setattr__(e, "y", -1)
        assert partition_findings(t) == []


class TestSharedAccumulatorAst:
    """The lint's static half is the staticcheck pass; its
    shared-accumulator cases live in tests/test_staticcheck.py."""

    def test_builtin_variants_pass_static_lint(self):
        for name in ("mandel", "blur", "life", "spin", "heat"):
            kernel = get_kernel(name)
            for v in kernel.variant_names():
                # no traced results: only the static proof runs
                assert lint_results(kernel, v, []).errors == [], (name, v)


class TestLintVariantDriver:
    def test_clean_builtin(self):
        result = lint_variant("mandel", "omp_tiled")
        assert result.clean
        assert "ok" in result.describe()

    def test_mpi_variant_lints_every_rank(self):
        result = lint_variant("blur", "mpi_omp", mpi_np=2)
        assert result.clean
        assert len(result.race_results) == 2  # one trace per rank

    def test_lazy_variant_no_gap_warnings(self):
        result = lint_variant("life", "lazy", iterations=4)
        assert result.warnings == []

    def test_verdict_is_static_when_no_error(self):
        assert lint_variant("mandel", "omp_tiled").verdict == "clean"
        # the dynamic half is clean, but the static proof is incomplete
        result = lint_variant("lu_wavefront", "omp_tiled")
        assert result.errors == []
        assert result.verdict == "unknown"
        assert "static: unknown" in result.describe()

    def test_crossval_violation_is_an_error(self):
        r = run(make_config(kernel="blur", variant="omp_tiled", trace=True,
                            footprints=True))
        # pretend one tile wrote a buffer the variant never touches:
        # outside the static envelope, yet no task reads it (no race)
        i, e = next((i, e) for i, e in enumerate(r.trace.events) if e.writes)
        r.trace.events[i] = dataclasses.replace(
            e, writes=(("scratch",) + tuple(e.writes[0][1:]),)
        )
        result = lint_results(get_kernel("blur"), "omp_tiled", [r])
        assert result.verdict == "race"
        assert [f.check for f in result.errors] == ["crossval"]
        assert "outside the static envelope" in result.errors[0].message
