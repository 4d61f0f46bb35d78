"""End-to-end tests for the analysis CLI surfaces:
``easypap --check-races/--load``, ``easyview --races`` and
``python -m repro.analyze``."""

from pathlib import Path

from repro.analyze.__main__ import main as analyze_main
from repro.cli import main as easypap_main
from repro.core.engine import run
from repro.core.kernel import load_kernel_module
from repro.easyview_cli import main as easyview_main
from repro.telemetry.ring import RING_CAP_ENV
from repro.trace.format import save_trace
from tests.conftest import make_config

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BUGGY_BLUR = str(EXAMPLES / "buggy_blur_writes_cur.py")
BUGGY_LIFE = str(EXAMPLES / "buggy_life_taskdeps.py")

# the structured ground truth shipped with each seeded-buggy example is
# the single source of expectations for these tests (no ad-hoc strings)
BLUR_EXPECTED = load_kernel_module(BUGGY_BLUR).EXPECTED_VERDICTS[
    ("blur_buggy", "omp_tiled")
]
LIFE_EXPECTED = load_kernel_module(BUGGY_LIFE).EXPECTED_VERDICTS[
    ("life_buggy", "omp_task")
]


class TestEasypapCheckRaces:
    def test_clean_variant_exits_zero(self, capsys):
        rc = easypap_main(
            ["-k", "blur", "-v", "omp_tiled", "-s", "64", "-ts", "16",
             "-i", "2", "--check-races"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no data races" in out

    def test_buggy_kernel_exits_one_with_report(self, capsys):
        # the static proof finds the race: the kernel is never run
        rc = easypap_main(
            ["--load", BUGGY_BLUR, "-k", "blur_buggy", "-v", "omp_tiled",
             "-s", "64", "-ts", "16", "-i", "2", "--check-races"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        exp = BLUR_EXPECTED
        assert f"{exp['kind']} race on buffer '{exp['buffer']}'" in captured.out
        assert "conflicting lines:" in captured.out
        assert exp["advice"] in captured.out
        assert "was not executed" in captured.err

    def test_lint_flag_full_report(self, capsys):
        rc = easypap_main(
            ["--load", BUGGY_LIFE, "-k", "life_buggy", "-v", "omp_task",
             "-s", "64", "-ts", "16", "-i", "2", "--check-races"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "life_buggy/omp_task" in out
        assert LIFE_EXPECTED["advice"] in out

    def test_mpi_variant_checked_per_rank(self, capsys):
        rc = easypap_main(
            ["-k", "blur", "-v", "mpi_omp", "-s", "64", "-ts", "16",
             "-i", "2", "--mpirun", "-np 2", "--check-races"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("no data races") == 2
        assert out.count("cross-validation blur/mpi_omp: ok") == 2

    def test_load_registers_kernel_for_listing(self, capsys):
        rc = easypap_main(["--load", BUGGY_BLUR, "--list-kernels"])
        assert rc == 0
        assert "blur_buggy" in capsys.readouterr().out

    def test_load_missing_file_is_error(self, capsys):
        rc = easypap_main(["--load", str(EXAMPLES / "nope.py"), "-k", "blur"])
        assert rc == 2

    def test_deterministic_reports(self, capsys):
        argv = ["--load", BUGGY_BLUR, "-k", "blur_buggy", "-v", "omp_tiled",
                "-s", "64", "-ts", "16", "-i", "2", "--check-races"]
        easypap_main(argv)
        first = capsys.readouterr().out
        easypap_main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestEasyviewRaces:
    def _record(self, tmp_path, extra_argv=()):
        trace = tmp_path / "t.evt"
        rc = easypap_main(
            [*extra_argv, "-s", "64", "-ts", "16", "-i", "2",
             "--check-races", "-t", "--trace-file", str(trace)]
        )
        return rc, trace

    def test_roundtrip_buggy_trace(self, tmp_path, capsys):
        # easypap --check-races refuses to run a statically racy variant,
        # so record the footprint trace through the library
        load_kernel_module(BUGGY_BLUR)
        result = run(make_config(kernel="blur_buggy", variant="omp_tiled",
                                 trace=True, footprints=True))
        trace = save_trace(result.trace, tmp_path / "t.evt")
        rc = easyview_main([str(trace), "--races"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "race analysis:" in out
        exp = BLUR_EXPECTED
        assert f"{exp['kind']} race on buffer '{exp['buffer']}'" in out

    def test_roundtrip_clean_trace(self, tmp_path, capsys):
        rc, trace = self._record(tmp_path, ["-k", "life", "-v", "omp_tiled"])
        assert rc == 0
        capsys.readouterr()
        rc = easyview_main([str(trace), "--races"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no data races" in out

    def test_footprint_free_trace_noted(self, tmp_path, capsys):
        trace = tmp_path / "nofp.evt"
        easypap_main(["-k", "mandel", "-v", "omp_tiled", "-s", "64", "-ts",
                      "16", "-t", "--trace-file", str(trace)])
        capsys.readouterr()
        rc = easyview_main([str(trace), "--races"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no footprints" in out


class TestStrictRaces:
    """--check-races: a verdict from a lossy telemetry ring must not
    silently pass (the dropped events could hold the racy accesses)."""

    ARGS = ["-k", "blur", "-v", "omp_tiled", "-s", "64", "-ts", "16", "-i", "2"]

    def _lossy_run(self, monkeypatch, dropped):
        import repro.cli as cli

        real_run = cli.run

        def lossy(config, **kwargs):
            result = real_run(config, **kwargs)
            result.dropped_events = dropped
            return result

        monkeypatch.setattr(cli, "run", lossy)

    def test_lossy_ring_fails(self, capsys, monkeypatch):
        self._lossy_run(monkeypatch, dropped=1)
        rc = easypap_main([*self.ARGS, "--check-races"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "refusing the verdict" in captured.err
        assert "no data races" in captured.out  # verdict still printed

    def test_lossy_ring_only_warns_without_flag(self, capsys, monkeypatch):
        # a lossy ring fails the verdict on its own, with the knob to
        # raise named
        self._lossy_run(monkeypatch, dropped=3)
        rc = easypap_main([*self.ARGS, "--check-races"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "dropped 3 event(s)" in captured.err
        assert RING_CAP_ENV in captured.err


class TestAnalyzeSweep:
    def test_single_kernel_sweep_clean(self, capsys):
        rc = analyze_main(["-k", "mandel", "-k", "blur"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_verbose_lists_variants(self, capsys):
        rc = analyze_main(["-k", "mandel", "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mandel/omp_tiled: ok" in out

    def test_unknown_kernel_is_usage_error(self, capsys):
        rc = analyze_main(["-k", "no_such_kernel"])
        assert rc == 2
        assert "no_such_kernel" in capsys.readouterr().err

    def test_expected_verdicts_flip_polarity(self, capsys):
        rc = analyze_main(["--load", BUGGY_BLUR, "-k", "blur_buggy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 seeded bug(s) confirmed" in out

    def test_missing_detection_fails_sweep(self, capsys, monkeypatch):
        # if the detector went blind, the annotated variant must FAIL
        # the sweep instead of silently passing
        import repro.analyze.__main__ as sweep_mod

        real = sweep_mod.lint_variant

        def blind(kname, vname, **kwargs):
            result = real(kname, vname, **kwargs)
            if (kname, vname) == ("blur_buggy", "omp_tiled"):
                result.findings = [f for f in result.findings
                                   if f.level != "error"]
            return result

        monkeypatch.setattr(sweep_mod, "lint_variant", blind)
        rc = analyze_main(["--load", BUGGY_BLUR, "-k", "blur_buggy"])
        assert rc == 1
        assert "found none" in capsys.readouterr().out

    def test_blind_static_half_fails_sweep(self, capsys, monkeypatch):
        # a static proof that misses the seeded race must fail the
        # sweep even though the traced run still confirms it
        import repro.analyze.lint as lint_mod

        real = lint_mod.check_variant

        def blind(kernel, vname):
            report = real(kernel, vname)
            report.verdict, report.races = "clean", []
            return report

        monkeypatch.setattr(lint_mod, "check_variant", blind)
        rc = analyze_main(["--load", BUGGY_BLUR, "-k", "blur_buggy"])
        assert rc == 1
        assert "expected verdict 'race', got 'clean'" in capsys.readouterr().out

    def test_blind_dynamic_half_fails_sweep(self, capsys, monkeypatch):
        # a race detector that sees nothing must fail the sweep even
        # though the static proof still finds the race
        import repro.analyze.lint as lint_mod
        from repro.analyze.races import RaceCheckResult

        monkeypatch.setattr(
            lint_mod, "check_races",
            lambda trace: RaceCheckResult(races=[], regions_checked=0,
                                          tasks_checked=0),
        )
        rc = analyze_main(["--load", BUGGY_BLUR, "-k", "blur_buggy"])
        assert rc == 1
        assert "the dynamic run found none" in capsys.readouterr().out
