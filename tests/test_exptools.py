"""Tests for expTools sweeps (paper Fig. 5 workflow)."""

import pytest

from repro.cli import build_parser, config_from_args, parse_args_strict
from repro.errors import ConfigError
from repro.expt.csvdb import append_rows, read_rows, strip_provenance
from repro.expt.exptools import (
    _argv_of,
    _combinations,
    _env_of,
    execute,
    point_key,
    sweep_configs,
)


class TestSweepConfigs:
    def test_cartesian_product(self):
        configs = sweep_configs(
            {"OMP_NUM_THREADS=": [2, 4], "OMP_SCHEDULE=": ["static", "dynamic"]},
            {"--kernel ": ["mandel"], "--size ": [64], "--grain ": [16, 32]},
        )
        assert len(configs) == 2 * 2 * 2
        threads = {c.nthreads for c, _ in configs}
        scheds = {c.schedule for c, _ in configs}
        grains = {c.tile_w for c, _ in configs}
        assert threads == {2, 4} and grains == {16, 32}
        assert scheds == {"static", "dynamic"}

    def test_paper_style_keys_with_trailing_space(self):
        configs = sweep_configs(
            {"OMP_NUM_THREADS=": [3]},
            {"--kernel ": ["blur"], "--variant ": ["omp_tiled"], "--iterations ": [2]},
        )
        (cfg, env), = configs
        assert cfg.kernel == "blur" and cfg.variant == "omp_tiled"
        assert cfg.iterations == 2 and cfg.nthreads == 3
        assert env == {"OMP_NUM_THREADS": "3"}

    def test_one_parse_per_option_combination_keeps_the_grid(self):
        icvs = {"OMP_NUM_THREADS=": [1, 2, 4], "OMP_SCHEDULE=": ["static", "guided"]}
        options = {"-k ": ["mandel", "blur"], "-v ": ["omp_tiled"], "-s ": [64],
                   "-g ": [16, 32], "--load ": ["a.py"], "--mpirun ": ["-np 2"]}
        # the grid as built before: a fresh parser and parse per point
        expected = []
        for combo in _combinations(options):
            for icv_combo in _combinations(icvs):
                env = _env_of(icv_combo)
                args = parse_args_strict(_argv_of(combo), build_parser())
                expected.append((config_from_args(args, env=env), env))
        assert sweep_configs(icvs, options) == expected
        assert sweep_configs(icvs, options) == expected  # the cached parser

    def test_empty_specs_yield_default_config(self):
        configs = sweep_configs({}, {})
        assert len(configs) == 1

    def test_option_typo_raises_config_error_not_system_exit(self):
        """argparse must not SystemExit the interpreter mid-sweep."""
        with pytest.raises(ConfigError, match="--grian"):
            sweep_configs({}, {"--grian ": [16]})

    def test_bad_value_raises_config_error(self):
        with pytest.raises(ConfigError):
            sweep_configs({}, {"--size ": ["not-a-number"]})


class TestExecute:
    def _sweep(self, tmp_path, **kw):
        return execute(
            "easypap",
            {"OMP_NUM_THREADS=": [2, 4]},
            {
                "--kernel ": ["mandel"],
                "--variant ": ["omp_tiled"],
                "--size ": [64],
                "--grain ": [16],
                "--iterations ": [2],
            },
            runs=2,
            csv_path=tmp_path / "perf.csv",
            **kw,
        )

    def test_row_count_and_columns(self, tmp_path):
        rows = self._sweep(tmp_path)
        assert len(rows) == 4  # 2 thread counts x 2 runs
        for row in rows:
            assert row["kernel"] == "mandel"
            assert row["time_us"] > 0
            assert row["run"] in (0, 1)
            assert row["machine"] == "virtual"

    def test_csv_written(self, tmp_path):
        self._sweep(tmp_path)
        rows = read_rows(tmp_path / "perf.csv")
        assert len(rows) == 4

    def test_telemetry_counter_columns(self, tmp_path):
        """Sweep rows carry the bus's steal counter."""
        rows = self._sweep(tmp_path)
        for row in rows:
            assert row["steals"] >= 0
            assert "dropped_events" not in row
        stealing = execute(
            "easypap",
            {"OMP_NUM_THREADS=": [4]},
            {
                "--kernel ": ["mandel"],
                "--variant ": ["omp_tiled"],
                "--size ": [64],
                "--grain ": [16],
                "--iterations ": [2],
                "--schedule ": ["nonmonotonic:dynamic,1"],
            },
            runs=1,
            csv_path=tmp_path / "steals.csv",
        )
        assert any(r["steals"] > 0 for r in stealing)

    def test_replay_matches_full_runs(self, tmp_path):
        """reuse_work=True must give exactly the same virtual times."""
        full = self._sweep(tmp_path)
        fast = execute(
            "easypap",
            {"OMP_NUM_THREADS=": [2, 4]},
            {
                "--kernel ": ["mandel"],
                "--variant ": ["omp_tiled"],
                "--size ": [64],
                "--grain ": [16],
                "--iterations ": [2],
            },
            runs=1,
            csv_path=tmp_path / "perf2.csv",
            reuse_work=True,
        )
        full_times = {(r["threads"]): r["time_us"] for r in full if r["run"] == 0}
        fast_times = {(r["threads"]): r["time_us"] for r in fast}
        assert fast_times == pytest.approx(full_times)

    def test_runs_are_deterministic(self, tmp_path):
        rows = self._sweep(tmp_path)
        by_threads = {}
        for r in rows:
            by_threads.setdefault(r["threads"], set()).add(r["time_us"])
        # virtual time: identical across repetitions
        assert all(len(v) == 1 for v in by_threads.values())

    def test_unknown_program_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            execute("make", {}, {}, csv_path=tmp_path / "x.csv")


class TestLegacyColumns:
    def test_half_written_csv_with_jit_tier_resumes(self, tmp_path):
        """Older databases load and resume without re-running a completed
        point: those written while sweeps still recorded the execution
        tier carry a ``jit_tier`` column, and those written before rows
        recorded every parameter lack the ``dim_y``, ``dim_z``,
        ``jitter``, ``time_scale`` and ``seed`` columns."""
        icvs = {"OMP_NUM_THREADS=": [2, 4]}
        opts = {"--kernel ": ["mandel"], "--size ": [32], "--grain ": [16],
                "--iterations ": [1]}
        full = execute("easypap", icvs, opts, runs=2, csv_path=tmp_path / "full.csv")
        assert "jit_tier" not in full[0]
        late = ("dim_y", "dim_z", "jitter", "time_scale", "seed")
        legacy_rows = {
            "jit_tier": lambda r: dict(r, jit_tier="fastpath"),
            "before_late_parameters": lambda r: {
                k: v for k, v in r.items() if k not in late
            },
        }
        for name, legacy_row in legacy_rows.items():
            legacy = tmp_path / f"{name}.csv"
            half = [legacy_row(r) for r in full[:2]]
            append_rows(legacy, half)
            redone = execute("easypap", icvs, opts, runs=2, csv_path=legacy, resume=True)
            done = {point_key(r) for r in half}
            assert len(redone) == len(full) - len(half), name
            assert not done & {point_key(r) for r in redone}
            rows = read_rows(legacy)
            assert len({point_key(r) for r in rows}) == len(full)
            assert all("jit_tier" not in strip_provenance(r) for r in rows)
            if name == "jit_tier":
                assert [r["jit_tier"] for r in rows] == (
                    ["fastpath"] * 2 + [""] * len(redone)
                )
            else:
                assert [r["seed"] for r in rows] == [""] * len(rows)
                assert [r["jitter"] for r in rows] == [""] * 2 + [0.0] * len(redone)
