"""Unified telemetry: one backend-agnostic instrumentation pipeline.

See :mod:`repro.telemetry.bus` for the in-process channel and its
three consumer hooks, :mod:`repro.telemetry.ring` for the
shared-memory channel procs workers write, and
``docs/observability.md`` for the full picture.
"""
