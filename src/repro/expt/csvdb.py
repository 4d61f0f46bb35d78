"""The performance-results CSV database.

EASYPAP's performance mode appends every run — completion time plus
all execution and configuration parameters — to a CSV file (paper
§II-C).  This module owns that file format: crash-safe appends, typed
reads, filtering and grouping helpers used by ``easyplot``, and the
column-role table (:data:`COLUMN_ROLES`) that tells a row's parameters
from its repetition index, measurements and provenance.

Durability model (what the parallel sweep runner relies on):

* When the incoming rows fit the existing header, :func:`append_rows`
  is a **true append** — one line-buffered write per row, never
  touching data already on disk.  A process killed mid-append loses at
  most its own last row; everything previously recorded survives.
* When the column set must grow (sweeps evolve), the file is rewritten
  to a temporary sibling and swapped in with :func:`os.replace`, so
  readers always see either the old or the new complete file.
* Writers serialize on an advisory ``flock`` over a ``<name>.lock``
  sidecar (see :func:`locked`), so concurrent sweep processes can
  share one database without interleaving or losing rows.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import PlotError

try:  # POSIX only; on other platforms writers fall back to best-effort
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "append_rows",
    "read_rows",
    "read_header",
    "filter_rows",
    "unique_values",
    "locked",
    "COLUMN_ROLES",
    "column_role",
    "strip_provenance",
]

#: the role of each column of a results row that is not a parameter.
#: As in PaPaS and automan, a study's parameters (what was run) stay
#: apart from its outputs: ``run`` is the repetition index, a
#: measurement is what the point produced, provenance is where and
#: through which cache it ran.  Any other column — those of
#: ``RunConfig.csv_row()``, or one a user adds — is a parameter.
#: Resume identity, :func:`strip_provenance` and easyplot's title and
#: legend all read this table.  ``dropped_events`` and ``jit_tier`` are
#: legacy columns nothing writes any more.
COLUMN_ROLES = {
    "run": "run",
    "time_us": "measurement",
    "completed": "measurement",
    "steals": "measurement",
    "status": "measurement",
    "error": "measurement",
    "dropped_events": "measurement",
    "executor": "provenance",
    "worker_id": "provenance",
    "memo": "provenance",
    "jit_tier": "provenance",
}


def column_role(column: str) -> str:
    """``parameter``, ``run``, ``measurement`` or ``provenance``."""
    return COLUMN_ROLES.get(column, "parameter")


def strip_provenance(row: dict) -> dict:
    """A copy of ``row`` without its provenance columns: rows of one
    point compare equal whichever executor, worker or cache produced
    them."""
    return {k: v for k, v in row.items() if column_role(k) != "provenance"}


#: spellings float() accepts but that must stay strings: a cell reading
#: "nan" must not NaN-poison easyplot group keys (NaN != NaN, so every
#: such row would land in its own group), and "inf" must not merge
#: distinct labels into one float
_NONFINITE_SPELLINGS = frozenset(["nan", "inf", "infinity"])


def _parse_cell(text: str) -> Any:
    """Best-effort typing: int, then finite float, then string.

    Only values that round-trip are coerced: any spelling of a
    non-finite float (``nan``/``inf``/``infinity``, any case or sign)
    is kept as a string, so ``read → write → read`` is the identity on
    cell values.
    """
    if text == "":
        return ""
    try:
        return int(text)
    except ValueError:
        pass
    if text.strip().lstrip("+-").lower() in _NONFINITE_SPELLINGS:
        return text
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):  # pragma: no cover - guarded above
        return text
    return value


@contextmanager
def locked(path: str | os.PathLike) -> Iterator[None]:
    """Advisory exclusive lock serializing writers of ``path``.

    The lock lives on a ``<name>.lock`` sidecar so the database file
    itself is only ever touched by whole-row appends or atomic
    replaces.  Reentrant use in one process is not supported; where
    ``fcntl`` is unavailable the lock degrades to a no-op (single
    writer assumed).
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path = p.with_name(p.name + ".lock")
    with lock_path.open("a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def read_header(path: str | os.PathLike) -> list[str] | None:
    """The column list of ``path``, or None for a missing/empty file."""
    p = Path(path)
    if not p.exists():
        return None
    with p.open("r", newline="", encoding="utf-8") as fh:
        try:
            return next(csv.reader(fh))
        except StopIteration:
            return None


def _read_raw(p: Path) -> list[dict]:
    """Rows as raw strings (used by the rewrite path so existing cells
    are preserved byte-for-byte rather than retyped and reformatted)."""
    with p.open("r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def append_rows(path: str | os.PathLike, rows: Iterable[dict]) -> Path:
    """Append dict rows to ``path``, creating it (with a header) if needed.

    New columns appearing later are supported by an atomic rewrite with
    the header union; missing cells become empty strings — sweeps
    evolve, old data stays loadable.  When the columns already fit, the
    write is a true O(rows) append (the historical implementation
    re-read and rewrote the whole file on every call).
    """
    rows = [dict(r) for r in rows]
    if not rows:
        return Path(path)
    p = Path(path)
    with locked(p):
        header = read_header(p)
        new_cols: list[str] = []
        for r in rows:
            for k in r:
                if (header is None or k not in header) and k not in new_cols:
                    new_cols.append(k)

        if header is not None and not new_cols:
            # fast path: line-buffered so each row reaches the OS as a
            # unit — a kill mid-sweep can only lose the row in flight
            with p.open("a", newline="", encoding="utf-8", buffering=1) as fh:
                w = csv.DictWriter(fh, fieldnames=header, restval="")
                for r in rows:
                    w.writerow(r)
            return p

        cols = (header or []) + new_cols
        existing = _read_raw(p) if header is not None else []
        tmp = p.with_name(f"{p.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("w", newline="", encoding="utf-8") as fh:
                w = csv.DictWriter(fh, fieldnames=cols, restval="")
                w.writeheader()
                for r in existing + rows:
                    w.writerow(r)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, p)
        finally:
            tmp.unlink(missing_ok=True)
    return p


def read_rows(path: str | os.PathLike, *, typed: bool = True) -> list[dict]:
    """Read a results CSV with typed cells, or with ``typed=False`` the
    strings as written (a truncated row's missing cells read ``""``)."""
    p = Path(path)
    if not p.exists():
        raise PlotError(f"results file not found: {p}")
    parse = _parse_cell if typed else str
    with p.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [
            {k: parse(v if v is not None else "") for k, v in row.items() if k is not None}
            for row in reader
        ]


def filter_rows(rows: list[dict], **criteria: Any) -> list[dict]:
    """Rows matching every criterion (value, or list of accepted values)."""
    out = []
    for r in rows:
        ok = True
        for k, v in criteria.items():
            if v is None:
                continue
            cell = r.get(k)
            accepted = v if isinstance(v, (list, tuple, set)) else (v,)
            if cell not in accepted:
                ok = False
                break
        if ok:
            out.append(r)
    return out


def unique_values(rows: list[dict], column: str) -> list[Any]:
    """Distinct values of a column, in stable first-seen order."""
    seen: list[Any] = []
    for r in rows:
        v = r.get(column)
        if v not in seen:
            seen.append(v)
    return seen

