"""``repro.staticcheck``: AST-based static analysis of kernel variants.

Three run-free verdicts over every kernel variant (see
``docs/staticcheck.md``):

1. **static race check** — symbolic per-tile read/write footprints
   (halo extents as affine offsets of the tile rectangle) checked for
   overlap across concurrent tiles of each worksharing construct and
   for ordering coverage in task DAGs;
2. **backend-eligibility lint** — closure capture, nondeterminism,
   kernel-state mutation, shared scalar accumulators, fastpath
   aliasing (shared state mutated from a parallel region is an error
   and makes the verdict ``race``);
3. **contract cross-validation** — dynamic footprint regions
   from a recorded trace must fall inside the static envelope.

Soundness contract: a variant is reported ``clean`` only when every
access of every parallel region was modeled *and* proven conflict-free;
anything outside the model degrades to ``unknown``, never to a false
``clean``.  A ``race`` verdict is an existence proof: a concrete
neighbor offset on which two unordered instances touch the same cell.

This is the only source-level analyzer: :mod:`repro.analyze.lint`
runs :func:`check_variant` as the first step of each variant's verdict
and :func:`cross_validate` as the last.  Entry points:
:func:`check_variant` / :func:`check_kernels` (library),
``python -m repro.staticcheck`` (CLI, never executes a kernel),
``easypap --check-races`` and ``easyview --halos`` (integrated).
"""

from repro.staticcheck.check import (
    check_kernel,
    check_kernels,
    check_variant,
    expectation_problems,
    expected_verdicts,
)
from repro.staticcheck.crossval import CrossValResult, cross_validate
from repro.staticcheck.eligibility import Finding
from repro.staticcheck.races import StaticRace
from repro.staticcheck.report import SCHEMA_VERSION, StaticCheckReport, VariantReport

__all__ = [
    "check_variant", "check_kernel", "check_kernels",
    "expected_verdicts", "expectation_problems",
    "cross_validate", "CrossValResult",
    "StaticRace", "Finding",
    "StaticCheckReport", "VariantReport", "SCHEMA_VERSION",
]
