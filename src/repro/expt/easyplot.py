"""easyplot: turn performance CSVs into speedup graphs (paper Fig. 6).

The key feature (paper §II-C): *the legend is automatically generated
from the data*.  After filtering, columns holding a single value are
put aside (listed above the graph), and plot-line names are built from
the remaining varying columns — so experiments run under different
conditions can never be silently merged into one curve.  Only
*parameter* columns (:func:`repro.expt.csvdb.column_role`) take part:
the repetition index, measurements such as ``steals`` and provenance
such as ``worker_id`` never split a curve or reach the title.

``build_plot`` produces a :class:`PlotSpec` (facet grid + series with
mean/std over runs); the text/SVG renderers live in
:mod:`repro.expt.plotting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, pstdev
from typing import Any

from repro.errors import PlotError
from repro.expt.csvdb import column_role, filter_rows, unique_values

__all__ = ["PlotSeries", "PlotFacet", "PlotSpec", "build_plot"]


@dataclass
class PlotSeries:
    """One plot line: label + aggregated points."""

    label: str
    xs: list = field(default_factory=list)
    ys: list[float] = field(default_factory=list)
    yerr: list[float] = field(default_factory=list)

    def point(self, x) -> float | None:
        try:
            return self.ys[self.xs.index(x)]
        except ValueError:
            return None


@dataclass
class PlotFacet:
    """One sub-graph (e.g. ``grain = 16``)."""

    title: str
    series: list[PlotSeries] = field(default_factory=list)


@dataclass
class PlotSpec:
    """A complete figure: facets, axis names, constant parameters."""

    x: str
    ylabel: str
    facets: list[PlotFacet] = field(default_factory=list)
    const_params: dict[str, Any] = field(default_factory=dict)
    ref_time_us: float | None = None

    def header(self) -> str:
        """The "Parameters:" line above the graph (paper Fig. 6)."""
        parts = [f"{k}={v}" for k, v in self.const_params.items()]
        if self.ref_time_us is not None:
            parts.append(f"refTime={self.ref_time_us:.0f}")
        return "Parameters : " + " ".join(parts)


def _auto_ref_time(all_rows: list[dict], filtered: list[dict]) -> float:
    """Reference time for speedups: mean of 'seq' rows matching the
    filtered kernel/dim, else mean of 1-thread rows of the filtered set."""
    kernels = unique_values(filtered, "kernel")
    dims = unique_values(filtered, "dim")
    seq = [
        r
        for r in all_rows
        if r.get("variant") == "seq"
        and r.get("kernel") in kernels
        and r.get("dim") in dims
        and isinstance(r.get("time_us"), (int, float))
    ]
    if seq:
        return mean(r["time_us"] for r in seq)
    ones = [r for r in filtered if r.get("threads") == 1]
    if ones:
        return mean(r["time_us"] for r in ones)
    raise PlotError(
        "cannot infer a reference time for --speedup: provide ref_time_us, "
        "or include a 'seq' run (or 1-thread rows) in the data"
    )


def build_plot(
    rows: list[dict],
    *,
    x: str = "threads",
    y: str = "time_us",
    col: str | None = None,
    speedup: bool = False,
    ref_time_us: float | None = None,
    **filters: Any,
) -> PlotSpec:
    """Aggregate rows into a faceted plot with an automatic legend.

    Parameters mirror the ``easyplot`` command: ``col`` facets the graph
    by a column (``--col grain``), ``speedup`` converts times to
    speedups against ``ref_time_us`` (``--speedup``), and keyword
    filters restrict the data (``kernel="mandel"``).
    """
    # failed sweep points (exptools timeout/retries exhausted) carry no
    # measurement — keep them out of curves and reference times
    rows = [r for r in rows if r.get("status", "ok") != "error"]
    filtered = filter_rows(rows, **filters)
    if not filtered:
        raise PlotError(f"no rows match filters {filters!r}")
    if any(y not in r for r in filtered):
        raise PlotError(f"column {y!r} missing from some rows")
    if any(x not in r for r in filtered):
        raise PlotError(f"column {x!r} missing from some rows")

    if speedup and ref_time_us is None:
        ref_time_us = _auto_ref_time(rows, filtered)

    # classify parameters: constant -> title; varying (except x/col) -> legend
    columns = [c for c in filtered[0] if column_role(c) == "parameter"]
    const_params: dict[str, Any] = {}
    legend_cols: list[str] = []
    for c in columns:
        values = unique_values(filtered, c)
        if c in (x, col):
            continue
        if len(values) == 1:
            const_params[c] = values[0]
        else:
            legend_cols.append(c)

    col_values = unique_values(filtered, col) if col else [None]

    # columns perfectly correlated with the facet column (e.g. tile_h when
    # faceting by tile_w after a --grain sweep) belong to the facet, not
    # the legend
    if col is not None:
        implied: list[str] = []
        for c in legend_cols:
            determined = True
            for cv in col_values:
                vals = unique_values(
                    [r for r in filtered if r.get(col) == cv], c
                )
                if len(vals) > 1:
                    determined = False
                    break
            if determined:
                implied.append(c)
        legend_cols = [c for c in legend_cols if c not in implied]

    ylabel = "speedup" if speedup else y
    spec = PlotSpec(x=x, ylabel=ylabel, const_params=const_params, ref_time_us=ref_time_us)

    for cv in col_values:
        facet_rows = filtered if cv is None else [r for r in filtered if r.get(col) == cv]
        facet = PlotFacet(title="" if cv is None else f"{col} = {cv}")
        # group rows by legend signature
        groups: dict[tuple, list[dict]] = {}
        for r in facet_rows:
            key = tuple(r.get(c) for c in legend_cols)
            groups.setdefault(key, []).append(r)
        for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
            label = " ".join(f"{c}={v}" for c, v in zip(legend_cols, key)) or "all"
            series = PlotSeries(label=label)
            grows = groups[key]
            for xv in sorted(set(r[x] for r in grows), key=lambda v: (str(type(v)), v)):
                ys = [r[y] for r in grows if r[x] == xv and isinstance(r[y], (int, float))]
                if not ys:
                    continue
                if speedup:
                    vals = [ref_time_us / v for v in ys if v > 0]
                else:
                    vals = ys
                series.xs.append(xv)
                series.ys.append(mean(vals))
                series.yerr.append(pstdev(vals) if len(vals) > 1 else 0.0)
            facet.series.append(series)
        spec.facets.append(facet)
    return spec
