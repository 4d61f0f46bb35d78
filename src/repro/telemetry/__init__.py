"""Unified telemetry: one backend-agnostic instrumentation pipeline.

See :mod:`repro.telemetry.bus` for the in-process channel and its
three consumer hooks, :mod:`repro.telemetry.ring` for the master's
decoding of the telemetry procs workers return with each region, and
``docs/observability.md`` for the full picture.
"""
