"""Static-vs-dynamic footprint cross-validation.

The contract under test: every access the runtime actually performs
falls inside the statically inferred envelope — on fresh
footprint-carrying traces of several kernels, on every golden fixture
(vacuously on those recorded without footprints), and a tampered trace
must be caught."""

from pathlib import Path

import pytest

from repro.cli import main as easypap_main
from repro.core.kernel import get_kernel
from repro.staticcheck import check_variant, cross_validate
from repro.trace.format import load_trace

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = sorted(FIXTURES.glob("*.evt"))
#: the golden fixtures recorded with footprint collection on
GOLDEN_FOOTPRINTS = [p for p in GOLDEN if p.stem.endswith("_footprints")]


def _record(tmp_path, kernel, variant, name):
    trace = tmp_path / f"{name}.evt"
    rc = easypap_main(
        ["-k", kernel, "-v", variant, "-s", "64", "-ts", "16", "-i", "2",
         "--check-races", "-t", "--trace-file", str(trace)]
    )
    assert rc == 0
    return load_trace(trace)


@pytest.mark.parametrize(
    "kernel,variant",
    [
        ("blur", "omp_tiled"),
        ("life", "omp_tiled"),
        ("mandel", "omp_tiled"),
        ("heat", "omp_tiled"),
        ("scrollup", "omp_tiled"),
        ("transpose", "omp_tiled"),
    ],
)
def test_fresh_trace_inside_static_envelope(tmp_path, kernel, variant, capsys):
    trace = _record(tmp_path, kernel, variant, kernel)
    vr = check_variant(get_kernel(kernel), variant)
    assert vr.verdict in ("clean", "unknown")
    cv = cross_validate(vr, trace)
    assert cv.ok, cv.describe()
    assert cv.events > 0
    assert cv.regions_checked > 0


@pytest.mark.parametrize("variant", ["seq", "omp_tiled"])
def test_3d_footprints_checked_through_xy_projection(tmp_path, variant, capsys):
    # slab footprints are 7-tuples (buf, x, y, w, h, z, d); the analyzer
    # has no z axis, so it checks their (x, y, w, h) projection
    trace_path = tmp_path / "heat3d.evt"
    rc = easypap_main(
        ["-k", "heat3d", "-v", variant, "-s", "32", "-ts", "16", "-i", "1",
         "--check-races", "-t", "--trace-file", str(trace_path)]
    )
    assert rc == 0
    trace = load_trace(trace_path)
    assert any(len(reg) == 7 for e in trace.events for reg in e.reads)
    vr = check_variant(get_kernel("heat3d"), variant)
    cv = cross_validate(vr, trace)
    assert cv.ok, cv.describe()
    assert cv.events > 0


@pytest.mark.parametrize(
    "fixture", [p for p in GOLDEN if p not in GOLDEN_FOOTPRINTS],
    ids=lambda p: p.stem,
)
def test_golden_fixtures_pass_vacuously(fixture):
    trace = load_trace(fixture)
    vr = check_variant(get_kernel(trace.meta.kernel), trace.meta.variant)
    cv = cross_validate(vr, trace)
    assert cv.ok
    # these golden traces carry no footprints: the pass must be explicit
    # about its vacuity instead of claiming a validation that never ran
    assert cv.events == 0
    assert "vacuous" in cv.describe()


@pytest.mark.parametrize("fixture", GOLDEN_FOOTPRINTS, ids=lambda p: p.stem)
def test_golden_footprint_fixtures_validate(fixture):
    trace = load_trace(fixture)
    assert all(e.reads and e.writes for e in trace.events if e.kind == "tile")
    vr = check_variant(get_kernel(trace.meta.kernel), trace.meta.variant)
    cv = cross_validate(vr, trace)
    assert cv.ok, cv.describe()
    assert cv.events > 0


def test_tampered_trace_is_caught(tmp_path, capsys):
    trace_path = tmp_path / "blur.evt"
    rc = easypap_main(
        ["-k", "blur", "-v", "omp_tiled", "-s", "64", "-ts", "16", "-i", "2",
         "--check-races", "-t", "--trace-file", str(trace_path)]
    )
    assert rc == 0
    # rewrite one footprint: pretend a tile wrote 'cur' (the static
    # envelope only allows writes of 'next')
    text = trace_path.read_text(encoding="utf-8")
    tampered = text.replace('"writes": [["next"', '"writes": [["cur"', 1)
    assert tampered != text
    trace_path.write_text(tampered, encoding="utf-8")
    trace = load_trace(trace_path)
    vr = check_variant(get_kernel("blur"), "omp_tiled")
    cv = cross_validate(vr, trace)
    assert not cv.ok
    v = cv.violations[0]
    assert v.buf == "cur" and v.mode == "write"
    assert "outside the static envelope" in cv.describe()
    assert "FAILED" in cv.describe()


def test_out_of_halo_read_is_caught(tmp_path):
    trace_path = tmp_path / "blur2.evt"
    rc = easypap_main(
        ["-k", "blur", "-v", "omp_tiled", "-s", "64", "-ts", "16", "-i", "2",
         "--check-races", "-t", "--trace-file", str(trace_path)]
    )
    assert rc == 0
    # inflate one read to the whole image: far beyond the 1-pixel halo
    # of an interior tile
    text = trace_path.read_text(encoding="utf-8")
    needle = '"reads": [["cur", 15, 15, 18, 18]]'
    assert needle in text
    tampered = text.replace(needle, '"reads": [["cur", 0, 0, 64, 64]]', 1)
    trace_path.write_text(tampered, encoding="utf-8")
    trace = load_trace(trace_path)
    vr = check_variant(get_kernel("blur"), "omp_tiled")
    cv = cross_validate(vr, trace)
    assert not cv.ok
    assert cv.violations[0].mode == "read"
