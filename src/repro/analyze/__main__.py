"""``python -m repro.analyze`` — one verdict for every kernel variant.

The CI gate: gives each registered kernel/variant its verdict
(:func:`repro.analyze.lint.lint_variant`: the static proof, a traced
run at a small deterministic size, and cross-validation) and exits
nonzero if any *error*-level finding shows up.  Built-in variants must
come out clean.  The seeded-buggy examples under ``examples/`` can join
the sweep via ``--load``: their ``EXPECTED_VERDICTS`` annotations flip
the polarity, so an annotated variant *must* match its annotation — the
static race (kind, buffer, construct, lines, advice) and a dynamic
error naming the buffer — and then counts as a confirmed seeded bug,
while any mismatch fails the sweep.
"""

from __future__ import annotations

import argparse
import sys

from repro.analyze.lint import lint_variant
from repro.core.kernel import get_kernel, list_kernels, load_kernel_module
from repro.errors import EasypapError, UnknownKernelError
from repro.staticcheck import expectation_problems, expected_verdicts

#: variants that need an MPI world, with the process count to use
MPI_VARIANTS = {"mpi_omp": 2, "mpi_2d": 4}


def sweep(
    kernels: list[str] | None = None,
    *,
    dim: int = 64,
    tile: int = 16,
    verbose: bool = False,
    expected: dict | None = None,
) -> int:
    expected = expected or {}
    names = kernels or list_kernels()
    nerrors = nwarnings = nchecked = nconfirmed = 0
    for kname in names:
        try:
            kernel = get_kernel(kname)
        except UnknownKernelError as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 2
        for vname in kernel.variant_names():
            mpi_np = MPI_VARIANTS.get(vname, 0)
            result = lint_variant(
                kname, vname, dim=dim, tile=tile, mpi_np=mpi_np
            )
            nchecked += 1
            nwarnings += len(result.warnings)
            exp = expected.get((kname, vname))
            if exp and exp.get("verdict", "race") == "race":
                dynamic = [f.message for f in result.errors if f.check == "race"]
                problems = expectation_problems(exp, result.static, dynamic)
                nerrors += len(problems)
                for problem in problems:
                    print(problem)
                if not problems:
                    nconfirmed += 1
                    if verbose:
                        print(f"{kname}/{vname}: seeded bug confirmed")
                continue
            nerrors += len(result.errors)
            if verbose or not result.clean:
                print(result.describe())
    tail = f", {nconfirmed} seeded bug(s) confirmed" if nconfirmed else ""
    print(
        f"analyze: {nchecked} variants checked, "
        f"{nerrors} error(s), {nwarnings} warning(s){tail}"
    )
    return 1 if nerrors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="one verdict (static proof + traced run) per kernel variant",
    )
    parser.add_argument("-k", "--kernel", action="append", help="restrict to kernel(s)")
    parser.add_argument("-s", "--size", type=int, default=64, help="image size")
    parser.add_argument("--tile", type=int, default=16, help="tile size")
    parser.add_argument(
        "--load", action="append", default=[], metavar="FILE",
        help="load a kernel module first (its EXPECTED_VERDICTS annotations "
        "flip the polarity for the annotated variants)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        modules = [load_kernel_module(path) for path in args.load]
    except EasypapError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    return sweep(
        args.kernel, dim=args.size, tile=args.tile, verbose=args.verbose,
        expected=expected_verdicts(modules),
    )


if __name__ == "__main__":
    sys.exit(main())
