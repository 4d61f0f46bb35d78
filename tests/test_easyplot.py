"""Tests for easyplot: auto legend, facets, speedups (paper Fig. 6)."""

import pytest

from repro.errors import PlotError
from repro.expt.csvdb import read_rows
from repro.expt.easyplot import build_plot
from repro.expt.exptools import execute


def rows_fixture():
    rows = []
    for sched in ("static", "dynamic"):
        for grain in (16, 32):
            for threads in (2, 4):
                for rep in range(2):
                    base = 1000.0 if sched == "dynamic" else 1500.0
                    rows.append({
                        "machine": "virtual",
                        "kernel": "mandel",
                        "variant": "omp_tiled",
                        "dim": 64,
                        "tile_w": grain,
                        "iterations": 10,
                        "schedule": sched,
                        "threads": threads,
                        "run": rep,
                        "time_us": base / threads + rep,  # tiny run-to-run noise
                    })
    return rows


class TestLegend:
    def test_constant_columns_go_to_title(self):
        spec = build_plot(rows_fixture(), x="threads", col="tile_w")
        assert spec.const_params["kernel"] == "mandel"
        assert spec.const_params["dim"] == 64
        assert "schedule" not in spec.const_params

    def test_legend_from_varying_columns_only(self):
        spec = build_plot(rows_fixture(), x="threads", col="tile_w")
        labels = {s.label for s in spec.facets[0].series}
        assert labels == {"schedule=static", "schedule=dynamic"}

    def test_different_conditions_never_merge(self):
        """The paper's point: a second machine's rows become a separate
        plotline instead of polluting the existing one."""
        rows = rows_fixture()
        rows.append({**rows[0], "machine": "other"})
        spec = build_plot(rows, x="threads", col="tile_w")
        labels = {s.label for s in spec.facets[0].series}
        assert any("machine=" in lbl for lbl in labels)

    def test_header_lists_constants(self):
        spec = build_plot(rows_fixture(), x="threads", col="tile_w")
        assert "kernel=mandel" in spec.header()
        assert "dim=64" in spec.header()


class TestFacetsAndAggregation:
    def test_one_facet_per_col_value(self):
        spec = build_plot(rows_fixture(), x="threads", col="tile_w")
        assert [f.title for f in spec.facets] == ["tile_w = 16", "tile_w = 32"]

    def test_no_col_single_facet(self):
        spec = build_plot(rows_fixture(), x="threads")
        assert len(spec.facets) == 1 and spec.facets[0].title == ""

    def test_mean_over_runs(self):
        spec = build_plot(rows_fixture(), x="threads", col="tile_w")
        dyn = next(s for s in spec.facets[0].series if s.label == "schedule=dynamic")
        assert dyn.point(2) == pytest.approx(500.5)  # mean of 500 and 501

    def test_yerr_from_run_noise(self):
        spec = build_plot(rows_fixture(), x="threads", col="tile_w")
        s = spec.facets[0].series[0]
        assert all(e == pytest.approx(0.5) for e in s.yerr)

    def test_filters(self):
        spec = build_plot(rows_fixture(), x="threads", schedule="dynamic")
        assert spec.const_params["schedule"] == "dynamic"

    def test_no_matching_rows(self):
        with pytest.raises(PlotError):
            build_plot(rows_fixture(), kernel="nope")

    def test_missing_column(self):
        with pytest.raises(PlotError):
            build_plot(rows_fixture(), y="watts")


class TestSpeedup:
    def test_explicit_ref_time(self):
        spec = build_plot(rows_fixture(), x="threads", col="tile_w",
                          speedup=True, ref_time_us=1000.0)
        dyn = next(s for s in spec.facets[0].series if s.label == "schedule=dynamic")
        assert dyn.point(4) == pytest.approx(1000.0 / 250.5, rel=1e-3)
        assert spec.ylabel == "speedup"
        assert "refTime=1000" in spec.header()

    def test_auto_ref_from_seq_rows(self):
        rows = rows_fixture()
        rows.append({"machine": "virtual", "kernel": "mandel", "variant": "seq",
                     "dim": 64, "tile_w": 16, "iterations": 10,
                     "schedule": "dynamic", "threads": 1, "run": 0,
                     "time_us": 2000.0})
        spec = build_plot(rows, x="threads", col="tile_w", speedup=True,
                          variant="omp_tiled")
        assert spec.ref_time_us == pytest.approx(2000.0)

    def test_speedup_without_any_reference_raises(self):
        with pytest.raises(PlotError):
            build_plot(rows_fixture(), x="threads", speedup=True)


class TestSweepLegends:
    """Legends of real sweep CSVs: only parameters name curves or reach
    the title, so provenance and measured counters never split a curve
    and a swept parameter always does."""

    NOT_PARAMETERS = ("worker_id", "executor", "memo", "steals")
    OPTS = {"--kernel ": ["mandel"], "--variant ": ["omp_tiled"], "--size ": [64],
            "--grain ": [16], "--iterations ": [2]}

    def _plot(self, csv, **execute_kw):
        execute("easypap", execute_kw.pop("icvs"), execute_kw.pop("options", self.OPTS),
                csv_path=csv, **execute_kw)
        spec = build_plot(read_rows(csv), x="threads")
        header = spec.header()
        assert not [c for c in self.NOT_PARAMETERS if f"{c}=" in header], header
        return {s.label for s in spec.facets[0].series}

    def test_parallel_sweep_plots_one_curve_per_schedule(self, tmp_path):
        icvs = {"OMP_NUM_THREADS=": [1, 2, 4], "OMP_SCHEDULE=": ["static", "dynamic"]}
        labels = self._plot(tmp_path / "par.csv", icvs=icvs, runs=2, workers=2)
        assert labels == {"schedule=static", "schedule=dynamic"}

    def test_stealing_sweep_plots_one_curve_per_schedule(self, tmp_path):
        icvs = {"OMP_NUM_THREADS=": [2, 4],
                "OMP_SCHEDULE=": ["static", "nonmonotonic:dynamic"]}
        csv = tmp_path / "steal.csv"
        labels = self._plot(csv, icvs=icvs, runs=1)
        assert len({r["steals"] for r in read_rows(csv)}) > 2  # the counter varies
        assert labels == {"schedule=static", "schedule=nonmonotonic:dynamic"}

    def test_image_height_sweep_plots_one_curve_per_height(self, tmp_path):
        icvs = {"OMP_NUM_THREADS=": [2, 4]}
        opts = dict(self.OPTS, **{"--size-y ": [32, 64]})
        labels = self._plot(tmp_path / "h.csv", icvs=icvs, options=opts, runs=1)
        assert labels == {"dim_y=32", "dim_y=64"}
