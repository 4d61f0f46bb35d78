"""Tests for the easypap CLI."""


from repro.cli import config_from_args, main, parse_args


def parse(argv, env=None):
    return config_from_args(parse_args(argv), env=env or {})


class TestConfigFromArgs:
    def test_paper_invocation_seq(self):
        cfg = parse(["--kernel", "mandel", "--variant", "seq", "--size", "2048"])
        assert cfg.kernel == "mandel" and cfg.variant == "seq" and cfg.dim == 2048

    def test_paper_invocation_perf_mode(self):
        cfg = parse(["--kernel", "mandel", "--variant", "omp_tiled",
                     "--tile-size", "16", "--iterations", "50", "--no-display"])
        assert cfg.tile_w == cfg.tile_h == 16
        assert cfg.iterations == 50
        assert not cfg.display

    def test_grain_alias(self):
        cfg = parse(["--grain", "32"])
        assert cfg.tile_w == 32

    def test_rectangular_tiles(self):
        cfg = parse(["-tw", "32", "-th", "8"])
        assert (cfg.tile_w, cfg.tile_h) == (32, 8)

    def test_tile_default_clipped_to_small_images(self):
        cfg = parse(["--size", "16"])
        assert cfg.tile_w == 16

    def test_mpirun(self):
        cfg = parse(["--kernel", "life", "--variant", "mpi_omp",
                     "--mpirun", "-np 2", "--debug", "M"])
        assert cfg.mpi_np == 2 and cfg.debug == "M"

    def test_icvs_from_env(self):
        cfg = parse(["--kernel", "mandel"],
                    env={"OMP_NUM_THREADS": "6", "OMP_SCHEDULE": "guided"})
        assert cfg.nthreads == 6 and cfg.schedule == "guided"

    def test_flags_override_env(self):
        cfg = parse(["--nb-threads", "2", "--schedule", "static,4"],
                    env={"OMP_NUM_THREADS": "6", "OMP_SCHEDULE": "guided"})
        assert cfg.nthreads == 2 and cfg.schedule == "static,4"


class TestMain:
    def test_performance_mode_output(self, capsys):
        rc = main(["--kernel", "mandel", "--variant", "omp_tiled", "--size",
                   "64", "--tile-size", "16", "--iterations", "3",
                   "--no-display"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 iterations completed in" in out

    def test_list_kernels(self, capsys):
        assert main(["--list-kernels"]) == 0
        assert "mandel" in capsys.readouterr().out

    def test_list_variants(self, capsys):
        assert main(["--kernel", "blur", "--list-variants"]) == 0
        assert "omp_tiled_opt" in capsys.readouterr().out

    def test_monitoring_prints_windows(self, capsys):
        rc = main(["--kernel", "mandel", "--variant", "omp_tiled", "--size",
                   "64", "--tile-size", "16", "--iterations", "2",
                   "--monitoring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Tiling window" in out
        assert "Activity Monitor" in out
        assert "cumulated idleness" in out

    def test_trace_written(self, tmp_path, capsys):
        trace_file = tmp_path / "t.evt"
        rc = main(["--kernel", "mandel", "--variant", "omp_tiled", "--size",
                   "64", "--iterations", "2", "--trace", "--trace-file",
                   str(trace_file)])
        assert rc == 0
        assert trace_file.exists()
        from repro.trace.format import load_trace

        assert len(load_trace(trace_file)) > 0

    def test_dump_image(self, tmp_path, capsys):
        rc = main(["--kernel", "invert", "--variant", "seq", "--size", "32",
                   "--iterations", "1", "--dump", "--output-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "invert.ppm").exists()

    def test_display_dumps_frames(self, tmp_path):
        rc = main(["--kernel", "life", "--variant", "seq", "--size", "32",
                   "--tile-size", "16", "--iterations", "3", "--arg", "gun",
                   "--display", "--output-dir", str(tmp_path)])
        assert rc == 0
        frames = sorted(tmp_path.glob("life-*.ppm"))
        assert len(frames) == 3

    def test_csv_row_appended(self, tmp_path):
        csv = tmp_path / "perf.csv"
        main(["--kernel", "mandel", "--variant", "omp_tiled", "--size", "64",
              "--iterations", "1", "--csv", str(csv)])
        from repro.expt.csvdb import read_rows

        rows = read_rows(csv)
        assert len(rows) == 1
        assert rows[0]["kernel"] == "mandel" and rows[0]["time_us"] > 0

    def test_csv_row_records_the_run_index(self, tmp_path):
        from repro.expt.csvdb import read_rows
        from repro.expt.exptools import point_key

        csv = tmp_path / "perf.csv"
        for index in ("0", "1"):
            main(["--kernel", "mandel", "--variant", "omp_tiled", "--size", "64",
                  "--grain", "8", "--iterations", "2", "--nb-threads", "4",
                  "--schedule", "nonmonotonic:dynamic",
                  "--run-index", index, "--csv", str(csv)])
        rows = read_rows(csv)
        assert [r["run"] for r in rows] == [0, 1]
        assert len({point_key(r) for r in rows}) == 2
        assert all(r["completed"] == 2 and r["status"] == "ok" for r in rows)
        assert all(r["steals"] > 0 for r in rows)

    def test_early_stop_reported(self, capsys):
        rc = main(["--kernel", "sandpile", "--variant", "seq", "--size", "16",
                   "--tile-size", "8", "--iterations", "500"])
        assert rc == 0
        assert "stabilized at iteration" in capsys.readouterr().out

    def test_unknown_kernel_is_clean_error(self, capsys):
        rc = main(["--kernel", "bogus", "--iterations", "1"])
        assert rc == 1
        assert "easypap:" in capsys.readouterr().err

    def test_list_variants_of_unknown_kernel_is_clean_error(self, capsys):
        rc = main(["--kernel", "nosuch", "--list-variants"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("easypap: unknown kernel 'nosuch'")
        assert len(err.strip().splitlines()) == 1

    def test_bad_config_is_usage_error(self, capsys):
        rc = main(["--kernel", "mandel", "--size", "8", "--tile-size", "64"])
        assert rc == 2
        assert "easypap:" in capsys.readouterr().err

    def test_mpi_run_via_cli(self, capsys):
        rc = main(["--kernel", "life", "--variant", "mpi_omp", "--size", "64",
                   "--tile-size", "16", "--iterations", "3", "--arg", "gun",
                   "--mpirun", "-np 2"])
        assert rc == 0
        assert "iterations completed" in capsys.readouterr().out
