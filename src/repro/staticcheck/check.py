"""Driver: kernel/variant -> extracted regions -> footprints -> verdict.

The verdict lattice per variant:

``race``
    at least one conflict was *proven* (a concrete neighbor offset on
    which a write of one concurrent instance overlaps an access of the
    other, with no ordering between them), or an eligibility finding is
    an error (shared state mutated from a parallel region);
``unknown``
    no proven race, but something escaped the model — an unrecognized
    execution construct, a non-affine access, a buffer escaping into an
    undeclared helper call — inside a *parallel* region;
``clean``
    every access of every parallel region was modeled and every
    conflicting pair was proven disjoint or dependence-ordered.

Sequential regions never influence the verdict (no concurrency); their
footprints still feed the cross-validation envelope.
"""

from __future__ import annotations

import time

from repro.errors import UnknownVariantError
from repro.staticcheck.eligibility import eligibility_findings
from repro.staticcheck.extract import extract_variant
from repro.staticcheck.footprints import TILE, analyze_method, analyze_node
from repro.staticcheck.races import check_region
from repro.staticcheck.report import StaticCheckReport, VariantReport
from repro.staticcheck.sym import sym

__all__ = [
    "check_variant", "check_kernel", "check_kernels",
    "expected_verdicts", "expectation_problems",
]


def _analyze_region_bodies(kernel_cls, vm, region):
    item = TILE if region.item_kind == "tile" else sym("IT")
    pass_item = region.construct != "dag"
    bodies = list(region.bodies) + [t.body for t in region.tasks if t.body]
    fps = []
    for body in bodies:
        if body.method:
            fn = getattr(kernel_cls, body.method)
            if isinstance(fn, (staticmethod, classmethod)):
                fn = fn.__func__
            fp = analyze_method(kernel_cls, fn, item)
        else:
            extra = {name: TILE for name in body.tile_names}
            fp = analyze_node(kernel_cls, body.node, vm.ctx_name, item,
                              file=vm.file, extra_env=extra, pass_item=pass_item)
        fps.append(fp)
    region.footprints = fps


def check_variant(kernel, variant_name: str) -> VariantReport:
    """Statically analyze one variant of an instantiated kernel."""
    t0 = time.perf_counter()
    kernel_cls = type(kernel)
    fn = kernel.variants.get(variant_name)
    if fn is None:
        raise UnknownVariantError(kernel.name, variant_name, list(kernel.variants))
    vm = extract_variant(kernel_cls, kernel.name, variant_name, fn)
    races, unknowns = [], list(vm.unknown)
    for region in vm.regions:
        _analyze_region_bodies(kernel_cls, vm, region)
        r_races, r_unknowns = check_region(region)
        races.extend(r_races)
        unknowns.extend(r_unknowns)
    findings = eligibility_findings(vm.regions)
    if races or any(f.level == "error" for f in findings):
        verdict = "race"
    elif unknowns:
        verdict = "unknown"
    else:
        verdict = "clean"
    return VariantReport(
        kernel=kernel.name,
        variant=variant_name,
        verdict=verdict,
        races=races,
        findings=findings,
        unknowns=list(dict.fromkeys(unknowns)),
        regions=vm.regions,
        file=vm.file,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


def check_kernel(kernel, variants=None) -> list:
    """Variant reports for one kernel (all variants by default).  An
    explicit ``variants`` list is treated as a matrix restriction: names
    a kernel does not implement are skipped for that kernel."""
    if variants:
        names = [n for n in variants if n in kernel.variants]
    else:
        names = sorted(kernel.variants)
    return [check_variant(kernel, name) for name in names]


def check_kernels(kernels, variants=None) -> StaticCheckReport:
    """Aggregate report over several instantiated kernels."""
    report = StaticCheckReport()
    for kernel in kernels:
        report.reports.extend(check_kernel(kernel, variants))
    total = sum(r.elapsed_ms for r in report.reports)
    report.counters["staticcheck_ms"] = round(total, 3)
    report.counters["staticcheck_variants"] = len(report.reports)
    report.counters["staticcheck_races"] = sum(
        1 for r in report.reports if r.verdict == "race"
    )
    return report


def expected_verdicts(modules) -> dict:
    """The merged ``EXPECTED_VERDICTS`` annotations of loaded modules."""
    expected = {}
    for module in modules:
        expected.update(getattr(module, "EXPECTED_VERDICTS", {}) or {})
    return expected


def expectation_problems(exp: dict, report: VariantReport, dynamic=None) -> list:
    """Compare one variant against its ``EXPECTED_VERDICTS`` annotation.

    ``exp`` holds the annotated static fields (verdict, kind, buffer,
    construct, lines, advice); ``report`` is the static report;
    ``dynamic`` lists the messages of the dynamic race findings of a
    traced run, or is ``None`` when nothing ran.  An annotated race must
    then also be confirmed by a dynamic error naming the buffer.
    Returns human-readable problems (empty = all matched).
    """
    name = report.name
    want = exp.get("verdict", "race")
    if report.verdict != want:
        return [f"{name}: expected verdict {want!r}, got {report.verdict!r}"]
    if want != "race":
        return []
    problems = []
    fields = (("kind", "kind"), ("buffer", "buf"), ("construct", "construct"))
    if not any(
        all(not exp.get(key) or getattr(race, attr) == exp[key] for key, attr in fields)
        for race in report.races
    ):
        problems.append(
            f"{name}: no {exp.get('kind', 'any')} race on buffer "
            f"{exp.get('buffer')!r} was reported"
        )
    else:
        want_lines = set(exp.get("lines", []))
        got_lines = {ln for race in report.races for ln in race.lines}
        if not want_lines <= got_lines:
            problems.append(
                f"{name}: expected conflicting lines {sorted(want_lines)}, "
                f"reported {sorted(got_lines)}"
            )
        advice = exp.get("advice")
        if advice and not any(advice in race.advice for race in report.races):
            problems.append(f"{name}: advice does not mention {advice!r}")
    buf = exp.get("buffer", "")
    if dynamic is not None and not any(f"'{buf}'" in m for m in dynamic):
        problems.append(
            f"{name}: EXPECTED_VERDICTS announces a race on buffer {buf!r}, "
            "but the dynamic run found none"
        )
    return problems
