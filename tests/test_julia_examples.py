"""Tests for the Julia mode of mandel + smoke tests for the examples."""

import runpy

import numpy as np

from repro.core.engine import run
from repro.kernels.mandel import mandel_counts
from tests.conftest import make_config


class TestJuliaMode:
    def test_julia_dynamics_differ_from_mandel(self):
        cr = np.linspace(-1.5, 1.5, 8)[np.newaxis, :]
        ci = np.linspace(-1.5, 1.5, 8)[:, np.newaxis]
        mandel, _ = mandel_counts(cr, ci, 64)
        julia, _ = mandel_counts(cr, ci, 64, julia_c=(-0.8, 0.156))
        assert not np.array_equal(mandel, julia)

    def test_julia_of_zero_c_is_unit_disk(self):
        # z -> z^2 with c=0: points inside |z|<1 never escape
        cr = np.array([[0.5, 2.0]])
        ci = np.array([[0.0, 0.0]])
        counts, _ = mandel_counts(cr, ci, 50, julia_c=(0.0, 0.0))
        assert counts[0, 0] == 50  # |0.5| < 1: stays bounded
        assert counts[0, 1] < 5  # |2| > 1: escapes fast

    def test_variants_agree_in_julia_mode(self):
        cfg = dict(kernel="mandel", dim=64, tile_w=16, tile_h=16,
                   iterations=2, arg="julia")
        a = run(make_config(variant="seq", **cfg))
        b = run(make_config(variant="omp_tiled", nthreads=4, **cfg))
        assert np.array_equal(a.image, b.image)

    def test_arg_parsing(self):
        r = run(make_config(kernel="mandel", variant="seq", iterations=1,
                            arg="julia:-0.4:0.6:32"))
        assert r.context.data["julia_c"] == (-0.4, 0.6)
        assert r.context.data["max_iter"] == 32

    def test_default_c(self):
        r = run(make_config(kernel="mandel", variant="seq", iterations=1,
                            arg="julia"))
        assert r.context.data["julia_c"] == (-0.8, 0.156)


class TestExamples:
    """Smoke-run the shipped examples (they print and write into dump/)."""

    def _run_example(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # dump/ files land in the tmp dir
        import pathlib

        script = pathlib.Path(__file__).parent.parent / "examples" / name
        runpy.run_path(str(script), run_name="__main__")
        return capsys.readouterr().out

    def test_quickstart(self, tmp_path, monkeypatch, capsys):
        out = self._run_example("quickstart.py", tmp_path, monkeypatch, capsys)
        assert "speedup" in out
        assert "Tiling window" in out
        assert (tmp_path / "dump" / "quickstart_mandel.ppm").exists()

    def test_blur_stencil(self, tmp_path, monkeypatch, capsys):
        out = self._run_example("blur_stencil.py", tmp_path, monkeypatch, capsys)
        assert "gain" in out
        assert "overall speedup" in out
        assert (tmp_path / "dump" / "blur_basic.evt").exists()

    def test_cc_taskdeps(self, tmp_path, monkeypatch, capsys):
        out = self._run_example("cc_taskdeps.py", tmp_path, monkeypatch, capsys)
        assert "anti-diagonal" in out
        assert "sequential execution" in out
        assert "the critical path is 64 tasks deep" in out
