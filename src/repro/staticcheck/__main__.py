"""``python -m repro.staticcheck``: the static analyzer CLI.

Targets are resolved in order: an existing ``.py`` path, a dotted
module name (``examples.buggy_blur_writes_cur``), then a registered
kernel name.  Modules are loaded through the kernel-module loader (so
a file already registered via ``easypap --load`` is reused, not
re-registered) and every kernel they define is checked — without ever
executing a single kernel iteration.

Exit status: 0 when no race verdict was produced (or, under
``--expect``, when every verdict matches the module's
``EXPECTED_VERDICTS`` annotations), 1 on race / expectation mismatch /
cross-validation failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from repro.core.kernel import Kernel, get_kernel, list_kernels, load_kernel_module
from repro.errors import EasypapError
from repro.staticcheck.check import (
    check_kernels,
    expectation_problems,
    expected_verdicts,
)
from repro.staticcheck.crossval import cross_validate
from repro.trace.format import load_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Static race/eligibility analysis of kernel variants "
        "(no kernel execution).",
    )
    p.add_argument("targets", nargs="*",
                   help="kernel names, .py files, or dotted modules to check")
    p.add_argument("-k", "--kernel", action="append", default=[],
                   help="kernel name to check (repeatable)")
    p.add_argument("-V", "--variant", action="append", default=[],
                   help="restrict to these variants (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="check every registered kernel")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the machine-readable report ('-' for stdout)")
    p.add_argument("--expect", action="store_true",
                   help="compare verdicts against the loaded modules' "
                   "EXPECTED_VERDICTS annotations")
    p.add_argument("--trace", action="append", default=[], metavar="FILE",
                   help="cross-validate the static envelope against a "
                   "recorded trace (repeatable)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="include info-level findings and per-region footprints")
    return p


def _module_kernel_names(module) -> list:
    names = []
    for value in vars(module).values():
        if (isinstance(value, type) and issubclass(value, Kernel)
                and value is not Kernel
                and value.__module__ == module.__name__):
            name = getattr(value, "name", "?")
            if name and name != "?" and name in list_kernels():
                names.append(name)
    return names


def _resolve_targets(targets):
    """-> (kernel names, loaded modules). Raises EasypapError."""
    kernels, modules = [], []
    for target in targets:
        path = Path(target)
        if path.suffix == ".py" or path.exists():
            module = load_kernel_module(path)
            modules.append(module)
            kernels.extend(_module_kernel_names(module))
            continue
        if "." in target:
            try:
                spec = importlib.util.find_spec(target)
            except (ImportError, ValueError, ModuleNotFoundError):
                spec = None
            if spec is not None and spec.origin:
                module = load_kernel_module(spec.origin)
                modules.append(module)
                kernels.extend(_module_kernel_names(module))
                continue
        if target in list_kernels():
            kernels.append(target)
            continue
        raise EasypapError(
            f"cannot resolve target {target!r}: not a file, module or "
            "registered kernel"
        )
    return kernels, modules


def check_expectations(report, expected: dict) -> list:
    """Compare a StaticCheckReport against ``EXPECTED_VERDICTS``
    annotations.  Variants of an annotated kernel that carry no
    annotation must not be races.  Returns a list of human-readable
    problems (empty = all matched)."""
    annotated = {k for (k, _v) in expected}
    problems = []
    for vr in report.reports:
        exp = expected.get((vr.kernel, vr.variant))
        if exp is not None:
            problems.extend(expectation_problems(exp, vr))
        elif vr.verdict == "race" and vr.kernel in annotated:
            problems.append(
                f"{vr.name}: unexpected race verdict (no EXPECTED_VERDICTS "
                "annotation)"
            )
    return problems


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kernel_names, modules = _resolve_targets(args.targets)
        kernel_names.extend(args.kernel)
        if args.all or not kernel_names:
            kernel_names.extend(list_kernels())
        # stable order, duplicates removed
        kernel_names = list(dict.fromkeys(kernel_names))
        kernels = [get_kernel(name) for name in kernel_names]
    except EasypapError as exc:
        print(f"staticcheck: {exc}", file=sys.stderr)
        return 2

    variants = args.variant or None
    try:
        report = check_kernels(kernels, variants)
    except EasypapError as exc:  # pragma: no cover - defensive
        print(f"staticcheck: {exc}", file=sys.stderr)
        return 1

    status = 0
    if args.json == "-":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe(verbose=args.verbose))
        if args.verbose:
            for vr in report.sorted():
                print(f"\nfootprints of {vr.name}:")
                for line in vr.footprint_lines():
                    print(f"  {line}")
        if args.json:
            Path(args.json).parent.mkdir(parents=True, exist_ok=True)
            Path(args.json).write_text(
                json.dumps(report.to_dict(), indent=2), encoding="utf-8"
            )
            print(f"JSON report written to {args.json}")

    for trace_path in args.trace:
        try:
            trace = load_trace(trace_path)
        except EasypapError as exc:
            print(f"staticcheck: {exc}", file=sys.stderr)
            return 2
        vr = report.find(trace.meta.kernel, trace.meta.variant)
        if vr is None:
            print(
                f"staticcheck: trace {trace_path} is for "
                f"{trace.meta.kernel}/{trace.meta.variant}, which was not "
                "checked in this invocation",
                file=sys.stderr,
            )
            return 2
        cv = cross_validate(vr, trace)
        print(cv.describe())
        if not cv.ok:
            status = 1

    if args.expect:
        expected = expected_verdicts(modules)
        problems = check_expectations(report, expected)
        for problem in problems:
            print(f"staticcheck: expectation mismatch: {problem}",
                  file=sys.stderr)
        if problems:
            status = 1
        else:
            print(f"staticcheck: {len(expected)} expected verdict(s) matched")
    elif report.any_race:
        status = 1
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
