"""Trace file format: ``.evt`` JSON-lines.

Line 1 is a header object (``{"easypap_trace": 1, "meta": {...}}``);
every following line is one event.  The format is append-friendly,
diff-friendly and readable with standard tools — in the spirit of
EASYPAP's simple tooling.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import TraceError
from repro.trace.events import Trace, TraceEvent, TraceMeta

__all__ = ["save_trace", "load_trace", "TRACE_FORMAT_VERSION", "default_trace_path"]

TRACE_FORMAT_VERSION = 1


def default_trace_path(directory: str | os.PathLike = "traces", label: str = "cur") -> Path:
    """EASYPAP writes ``traces/ezv_trace_current.evt``; we mirror that."""
    return Path(directory) / f"ezv_trace_{label}.evt"


def save_trace(trace: Trace, path: str | os.PathLike) -> Path:
    """Write ``trace`` to ``path`` (parent directories are created).

    The whole file is encoded before ``path`` is opened: a header or
    event holding a value JSON cannot encode raises :class:`TraceError`
    and leaves the file system untouched.
    """
    encode = json.JSONEncoder().encode  # json.dumps's default settings
    header = {
        "easypap_trace": TRACE_FORMAT_VERSION,
        "meta": trace.meta.to_dict(),
        "nevents": len(trace.events),
    }
    lines: list[str] = []
    try:
        lines.append(encode(header))
        for event in trace.events:
            lines.append(encode(event.to_dict()))
    except (TypeError, ValueError) as exc:
        where = f"event {len(lines) - 1}" if lines else "header"
        raise TraceError(f"cannot encode trace {where} for {path}: {exc}") from None
    lines.append("")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(lines), encoding="utf-8")
    return p


def load_trace(path: str | os.PathLike) -> Trace:
    """Read a ``.evt`` trace file written by :func:`save_trace`."""
    p = Path(path)
    if not p.exists():
        raise TraceError(f"trace file not found: {p}")
    with p.open("r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise TraceError(f"empty trace file: {p}")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise TraceError(f"bad trace header in {p}: {exc}") from None
        version = header.get("easypap_trace")
        if version != TRACE_FORMAT_VERSION:
            raise TraceError(
                f"unsupported trace version {version!r} in {p} "
                f"(expected {TRACE_FORMAT_VERSION})"
            )
        meta = TraceMeta.from_dict(header.get("meta", {}))
        events = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise TraceError(f"bad trace event at {p}:{lineno}: {exc}") from None
        declared = header.get("nevents")
        if declared is not None and declared != len(events):
            raise TraceError(
                f"truncated trace {p}: header declares {declared} events, "
                f"found {len(events)}"
            )
    return Trace(meta, events)
