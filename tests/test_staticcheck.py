"""Core tests for ``repro.staticcheck``: symbolic algebra, verdicts
over every built-in kernel, the seeded-buggy positives, and the
soundness contract (``unknown`` is never silently ``clean``)."""

from pathlib import Path

import pytest

from repro.core.kernel import Kernel, get_kernel, list_kernels, load_kernel_module
from repro.staticcheck import check_kernels, check_variant
from repro.staticcheck.races import dep_cone
from repro.staticcheck.sym import (
    TOP,
    SymRect,
    add,
    always_ge,
    always_gt,
    const,
    is_top,
    relation,
    sub,
    sym,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BUGGY_BLUR = str(EXAMPLES / "buggy_blur_writes_cur.py")
BUGGY_LIFE = str(EXAMPLES / "buggy_life_taskdeps.py")


class TestSymbolicAlgebra:
    def test_affine_arithmetic_and_render(self):
        e = add(sym("TX"), add(sym("TW"), const(1)))
        assert str(e) == "TW+TX+1"
        assert str(sub(e, sym("TW"))) == "TX+1"

    def test_subst(self):
        e = add(sym("TX"), sym("TW"))
        shifted = e.subst({"TX": add(sym("TX"), sym("TW"))})
        # TX -> TX+TW gives TX+2*TW
        assert shifted.value({"TX": 3, "TW": 5}) == 13

    def test_top_is_absorbing(self):
        assert is_top(add(TOP, sym("TX")))
        assert is_top(sub(const(1), TOP))

    def test_box_bounds(self):
        # TX, TY, TR, TC >= 0 and TW, TH, DIM >= 1
        assert always_ge(sym("TX"), const(0))
        assert always_gt(add(sym("TX"), sym("TW")), sym("TX"))
        assert not always_ge(sym("TX"), const(1))
        # negative coefficients have no provable lower bound
        assert not always_ge(sub(sym("DIM"), sym("TX")), const(0))

    def test_relation_disjoint_overlap_unknown(self):
        tile = SymRect(buf="cur", x0=sym("TX"), y0=sym("TY"),
                       x1=add(sym("TX"), sym("TW")),
                       y1=add(sym("TY"), sym("TH")))
        right = tile.subst({"TX": add(sym("TX"), sym("TW"))})
        halo = SymRect(buf="cur", x0=sub(sym("TX"), const(1)),
                       y0=sub(sym("TY"), const(1)),
                       x1=add(add(sym("TX"), sym("TW")), const(1)),
                       y1=add(add(sym("TY"), sym("TH")), const(1)))
        assert relation(tile, right) == "disjoint"
        assert relation(halo, right) == "overlap"
        assert relation(tile, tile.subst({"TX": TOP})) == "unknown"
        # different buffers never conflict
        other = SymRect(buf="next", x0=tile.x0, y0=tile.y0,
                        x1=tile.x1, y1=tile.y1)
        assert relation(tile, other) == "disjoint"


class TestBuiltinVerdicts:
    @pytest.fixture(scope="class")
    def report(self):
        # other test modules register extra kernels (the seeded-buggy
        # examples, ad-hoc fixtures) in the same process: restrict to
        # the kernels shipped in repro.kernels
        kernels = [
            k for k in (get_kernel(name) for name in list_kernels())
            if type(k).__module__.startswith("repro.")
        ]
        assert len(kernels) >= 12
        return check_kernels(kernels)

    def test_no_builtin_races(self, report):
        racy = [r.name for r in report.reports if r.verdict == "race"]
        assert racy == [], f"false positives on shipped kernels: {racy}"

    def test_most_builtins_are_clean(self, report):
        clean = {r.name for r in report.reports if r.verdict == "clean"}
        for name in ("blur/omp_tiled", "life/omp_tiled", "mandel/omp_tiled",
                     "heat/omp_tiled", "cc/omp_task", "transpose/omp_tiled",
                     "scrollup/omp_tiled", "sandpile/omp_tiled"):
            assert name in clean

    def test_ocl_variants_are_unknown_not_clean(self, report):
        # the device launch is outside the model: soundness demands
        # ``unknown``, never a blind ``clean``
        for name in ("blur", "mandel"):
            vr = report.find(name, "ocl")
            assert vr.verdict == "unknown"
            assert any("device.launch" in u for u in vr.unknowns)

    def test_counters(self, report):
        assert report.counters["staticcheck_variants"] == len(report.reports)
        assert report.counters["staticcheck_races"] == 0
        assert report.counters["staticcheck_ms"] > 0

    def test_blur_halo_footprint(self, report):
        vr = report.find("blur", "omp_tiled")
        lines = "\n".join(vr.footprint_lines())
        assert "cur[x=TX-1..TW+TX+1, y=TY-1..TH+TY+1]" in lines
        assert "next[x=TX..TW+TX, y=TY..TH+TY]" in lines

    def test_heat_mpi_2d_reduces_max_delta(self, report):
        # the convergence delta is a parallel_reduce, not a shared
        # ctx.data read-modify-write from the tile bodies
        vr = report.find("heat", "mpi_2d")
        assert vr.verdict == "clean"
        assert not [f for f in vr.findings if f.check == "shared-accumulator"]


class TestSeededBugs:
    def test_blur_race_matches_annotation(self):
        module = load_kernel_module(BUGGY_BLUR)
        exp = module.EXPECTED_VERDICTS[("blur_buggy", "omp_tiled")]
        vr = check_variant(get_kernel("blur_buggy"), "omp_tiled")
        assert vr.verdict == "race"
        race = vr.races[0]
        assert race.kind == exp["kind"]
        assert race.buf == exp["buffer"]
        assert race.construct == exp["construct"]
        assert set(exp["lines"]) <= {ln for r in vr.races for ln in r.lines}
        assert any(exp["advice"] in r.advice for r in vr.races)

    def test_life_dag_race_matches_annotation(self):
        module = load_kernel_module(BUGGY_LIFE)
        exp = module.EXPECTED_VERDICTS[("life_buggy", "omp_task")]
        vr = check_variant(get_kernel("life_buggy"), "omp_task")
        assert vr.verdict == "race"
        race = vr.races[0]
        assert race.kind == exp["kind"]
        assert race.buf == exp["buffer"]
        assert race.construct == "dag"
        assert set(exp["lines"]) <= {ln for r in vr.races for ln in r.lines}
        # the advice names a concrete missing dependence
        assert any(exp["advice"] in r.advice for r in vr.races)

    def test_inherited_variants_stay_clean(self):
        load_kernel_module(BUGGY_BLUR)
        kernel = get_kernel("blur_buggy")
        for vname in ("seq", "tiled", "omp_tiled_opt"):
            assert check_variant(kernel, vname).verdict == "clean"

    def test_no_kernel_execution(self, monkeypatch):
        # the analyzer must never run a kernel: poison the engine
        import repro.core.engine as engine

        def boom(*args, **kwargs):
            raise AssertionError("staticcheck executed a kernel")

        monkeypatch.setattr(engine, "run", boom)
        load_kernel_module(BUGGY_BLUR)
        vr = check_variant(get_kernel("blur_buggy"), "omp_tiled")
        assert vr.verdict == "race"


class TestSharedAccumulator:
    """Shared state mutated from a parallel region is an error and makes
    the verdict ``race``; from a sequential region it is a warning."""

    def test_parallel_for_nonlocal_is_error(self):
        class BadKernel(Kernel):
            name = "bad-acc"

            def compute_omp(self, ctx, nb_iter):
                total = 0

                def body(t):
                    nonlocal total
                    total += t.area
                    return t.area

                ctx.parallel_for(body)
                return 0

            compute_omp._variant_name = "omp"

        vr = check_variant(BadKernel(), "omp")
        assert vr.verdict == "race"
        (finding,) = [f for f in vr.findings if f.level == "error"]
        assert finding.check == "captured-state"
        assert "'total'" in finding.message
        assert "parallel_reduce" in finding.message

    def test_parallel_reduce_mutation_is_error(self):
        class BadReduce(Kernel):
            name = "bad-reduce"

            def compute_omp(self, ctx, nb_iter):
                state = 0

                def body(t):
                    nonlocal state
                    state += 1
                    return 1.0, state

                ctx.parallel_reduce(body, combine=max, init=0)
                return 0

            compute_omp._variant_name = "omp"

        vr = check_variant(BadReduce(), "omp")
        assert vr.verdict == "race"
        assert [f.check for f in vr.findings if f.level == "error"] == [
            "captured-state"
        ]

    def test_body_local_accumulator_stays_clean(self):
        class GoodKernel(Kernel):
            name = "good-acc"

            def compute_omp(self, ctx, nb_iter):
                def body(t):
                    acc = 0
                    for v in range(4):
                        acc += v  # local: bound by assignment above
                    return float(acc)

                ctx.parallel_for(body)
                return 0

            compute_omp._variant_name = "omp"

        vr = check_variant(GoodKernel(), "omp")
        assert vr.verdict == "clean"
        assert vr.findings == []

    def test_sequential_for_nonlocal_is_warning(self):
        class SeqKernel(Kernel):
            name = "seq-acc"

            def compute_seq(self, ctx, nb_iter):
                total = 0

                def body(t):
                    nonlocal total
                    total += t.area
                    return t.area

                ctx.sequential_for(body)
                return 0

            compute_seq._variant_name = "seq"

        vr = check_variant(SeqKernel(), "seq")
        assert vr.verdict == "clean"
        assert [(f.level, f.check) for f in vr.findings] == [
            ("warning", "captured-state")
        ]


class TestDepCone:
    def test_cone_closure_sums_chains(self):
        cone = dep_cone([(0, -1)], radius=3)
        assert (0, -1) in cone and (0, -2) in cone and (0, -3) in cone
        assert (0, 0) not in cone
        assert (-1, 0) not in cone

    def test_cc_task_deps_cover(self):
        vr = check_variant(get_kernel("cc"), "omp_task")
        assert vr.verdict == "clean"
