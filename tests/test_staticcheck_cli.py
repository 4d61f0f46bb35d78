"""CLI surfaces of the static checker: ``python -m repro.staticcheck``,
``easypap --check-races`` and ``easyview --halos``."""

import json
from pathlib import Path

from repro.cli import main as easypap_main
from repro.easyview_cli import main as easyview_main
from repro.staticcheck import SCHEMA_VERSION
from repro.staticcheck.__main__ import main as staticcheck_main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
BUGGY_BLUR = str(EXAMPLES / "buggy_blur_writes_cur.py")
BUGGY_LIFE = str(EXAMPLES / "buggy_life_taskdeps.py")


class TestStaticcheckModuleCli:
    def test_clean_kernel_exits_zero(self, capsys):
        rc = staticcheck_main(["blur", "-V", "omp_tiled"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blur/omp_tiled: clean" in out
        assert "1 clean, 0 race, 0 unknown" in out

    def test_buggy_module_exits_one(self, capsys):
        rc = staticcheck_main([BUGGY_BLUR, "-V", "omp_tiled"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "blur_buggy/omp_tiled: RACE" in out
        assert "race on buffer 'cur'" in out

    def test_dotted_module_target(self, capsys):
        rc = staticcheck_main(
            ["examples.buggy_life_taskdeps", "-V", "omp_task"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "life_buggy/omp_task: RACE" in out
        assert "missing ordering edge" in out

    def test_unresolvable_target_is_usage_error(self, capsys):
        rc = staticcheck_main(["no.such.module"])
        assert rc == 2
        assert "cannot resolve target" in capsys.readouterr().err

    def test_expect_matches_annotations(self, capsys):
        rc = staticcheck_main([BUGGY_BLUR, BUGGY_LIFE, "--expect"])
        assert rc == 0
        assert "expected verdict(s) matched" in capsys.readouterr().out

    def test_json_schema(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = staticcheck_main(
            ["blur", "-V", "omp_tiled", "--json", str(out_path)]
        )
        assert rc == 0
        data = json.loads(out_path.read_text(encoding="utf-8"))
        assert data["easypap_staticcheck"] == SCHEMA_VERSION
        (report,) = data["reports"]
        assert report["kernel"] == "blur"
        assert report["verdict"] == "clean"
        assert report["footprints"]["reads"]
        assert data["counters"]["staticcheck_variants"] == 1

    def test_verbose_prints_footprints(self, capsys):
        rc = staticcheck_main(["blur", "-V", "omp_tiled", "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "footprints of blur/omp_tiled" in out
        assert "read  cur[" in out


class TestEasypapStaticCheck:
    """``easypap --check-races`` runs the static proof first; the
    static-only, no-execution check is ``python -m repro.staticcheck``."""

    ARGS = ["-k", "blur", "-v", "omp_tiled", "-s", "64", "-ts", "16", "-i", "2"]

    def test_static_only_does_not_execute(self, capsys, monkeypatch):
        import repro.core.engine as engine

        def boom(*args, **kwargs):
            raise AssertionError("the static-only check must not run")

        monkeypatch.setattr(engine, "run", boom)
        rc = staticcheck_main(["blur", "-V", "omp_tiled", "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blur/omp_tiled: clean" in out
        assert "read  cur[" in out  # inferred halos are printed

    def test_static_race_fails_fast(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise AssertionError("a racy variant must not be executed")

        monkeypatch.setattr(cli, "run", boom)
        rc = easypap_main(
            ["--load", BUGGY_BLUR, "-k", "blur_buggy", "-v", "omp_tiled",
             "-s", "64", "-ts", "16", "--check-races"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "RACE" in captured.out
        assert "was not executed" in captured.err

    def test_clean_verdict_is_confirmed_by_a_traced_run(self, tmp_path, capsys):
        # a clean static proof is not trusted blindly: footprints are
        # recorded and checked against the static envelope
        trace = tmp_path / "confirmed.evt"
        rc = easypap_main(
            [*self.ARGS, "--check-races", "-t", "--trace-file", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "blur/omp_tiled: ok (verdict: clean)" in out
        assert "cross-validation blur/omp_tiled: ok" in out
        from repro.trace.format import load_trace

        loaded = load_trace(trace)
        assert any(e.reads and e.writes for e in loaded.events)

    def test_static_counter_merged_into_telemetry(self, capsys, monkeypatch):
        import repro.cli as cli

        real_run = cli.run
        results = []

        def spy(config, **kwargs):
            results.append(real_run(config, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run", spy)
        rc = easypap_main([*self.ARGS, "--check-races"])
        assert rc == 0
        assert results[0].counters["staticcheck_ms"] > 0


class TestEasyviewHalos:
    def _record(self, tmp_path):
        trace = tmp_path / "t.evt"
        rc = easypap_main(
            ["-k", "blur", "-v", "omp_tiled", "-s", "64", "-ts", "16",
             "-i", "2", "--check-races", "-t", "--trace-file", str(trace)]
        )
        assert rc == 0
        return trace

    def test_halos_annotation_and_crossval(self, tmp_path, capsys):
        trace = self._record(tmp_path)
        capsys.readouterr()
        rc = easyview_main([str(trace), "--halos"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "static halos:" in out
        assert "read  cur[x=TX-1..TW+TX+1" in out
        assert "cross-validation blur/omp_tiled: ok" in out

    def test_unregistered_kernel_needs_load(self, tmp_path, capsys):
        header = {
            "easypap_trace": 1,
            "meta": {"kernel": "ghost", "variant": "seq", "dim": 8,
                     "tile_w": 8, "tile_h": 8, "ncpus": 1,
                     "schedule": "static", "iterations": 1, "label": "cur",
                     "machine": "virtual", "extra": {}},
            "nevents": 1,
        }
        event = {"iteration": 1, "cpu": 0, "start": 0.0, "end": 1e-6,
                 "x": 0, "y": 0, "w": 8, "h": 8, "kind": "tile", "extra": {}}
        p = tmp_path / "ghost.evt"
        p.write_text(json.dumps(header) + "\n" + json.dumps(event) + "\n",
                     encoding="utf-8")
        rc = easyview_main([str(p), "--halos"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "not registered" in out and "--load" in out
