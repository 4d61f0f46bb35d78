"""repro.analyze — parallel-correctness analyses over recorded runs.

Three analyses turn runs into verdicts (see ``docs/analyze.md``):

* :mod:`repro.analyze.races` — a vector-clock happens-before data-race
  detector over per-task tile read/write footprints;
* :mod:`repro.analyze.lint` — one verdict per kernel variant: the
  :mod:`repro.staticcheck` proof, then tile-partition, race and
  double-buffer checks on a traced run, then static-vs-dynamic
  cross-validation;
* :mod:`repro.analyze.deadlock` — the wait-for-graph machinery behind
  ``mpi.comm``'s blocked-rank deadlock detector.

CLI entry points: ``easypap --check-races`` and ``easyview --races``;
``python -m repro.analyze`` sweeps every built-in kernel variant (the
CI gate).
"""

from repro.analyze.lint import Finding, lint_results, lint_variant
from repro.analyze.races import RaceReport, check_races, detect_races

__all__ = [
    "RaceReport",
    "detect_races",
    "check_races",
    "Finding",
    "lint_results",
    "lint_variant",
]
