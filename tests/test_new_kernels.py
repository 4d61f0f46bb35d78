"""Tests for the spin, heat and scrollup kernels."""

import numpy as np
import pytest

from repro.core.engine import run
from repro.kernels.heat import TOLERANCE, _make_field, jacobi_step_rect
from tests.conftest import make_config


class TestSpin:
    def test_variants_agree(self):
        a = run(make_config(kernel="spin", variant="seq", iterations=3))
        b = run(make_config(kernel="spin", variant="omp_tiled", iterations=3,
                            nthreads=4, schedule="guided"))
        assert np.array_equal(a.image, b.image)

    def test_rotates_between_iterations(self):
        one = run(make_config(kernel="spin", variant="seq", iterations=1))
        two = run(make_config(kernel="spin", variant="seq", iterations=2))
        assert not np.array_equal(one.image, two.image)

    def test_uniform_cost_balances_under_static(self):
        r = run(make_config(kernel="spin", variant="omp_tiled",
                            schedule="static", iterations=2, monitoring=True))
        assert r.monitor.load_imbalance() < 1.05  # contrast with mandel

    def test_full_period_returns_to_start(self):
        # 48 iterations x pi/24 = 2*pi: the wheel comes back around
        base = run(make_config(kernel="spin", variant="seq", iterations=1))
        full = run(make_config(kernel="spin", variant="seq", iterations=49))
        assert np.array_equal(base.image, full.image)


class TestJacobiStep:
    def test_uniform_field_is_fixed_point(self):
        temp = np.full((8, 8), 0.5)
        nxt = np.zeros_like(temp)
        sources = np.full((8, 8), np.nan)
        delta = jacobi_step_rect(temp, nxt, sources, 0, 0, 8, 8)
        assert delta == pytest.approx(0.0)
        assert np.allclose(nxt, 0.5)

    def test_sources_stay_fixed(self):
        temp = np.zeros((4, 4))
        temp[0, 0] = 1.0
        sources = np.full((4, 4), np.nan)
        sources[0, 0] = 1.0
        nxt = np.zeros_like(temp)
        jacobi_step_rect(temp, nxt, sources, 0, 0, 4, 4)
        assert nxt[0, 0] == 1.0

    def test_tiled_equals_full(self):
        rng = np.random.default_rng(4)
        temp = rng.random((12, 12))
        sources = np.full((12, 12), np.nan)
        sources[5, 5] = 1.0
        temp[5, 5] = 1.0
        full = np.zeros_like(temp)
        jacobi_step_rect(temp, full, sources, 0, 0, 12, 12)
        tiled = np.zeros_like(temp)
        for y in range(0, 12, 4):
            for x in range(0, 12, 4):
                jacobi_step_rect(temp, tiled, sources, y, x, 4, 4)
        assert np.allclose(full, tiled)

    def test_insulated_borders_conserve_uniformity(self):
        # replicated edges: a hot wall diffuses inward without leaking out
        temp = np.zeros((6, 6))
        temp[:, 0] = 1.0
        sources = np.full((6, 6), np.nan)
        sources[:, 0] = 1.0
        nxt = np.zeros_like(temp)
        jacobi_step_rect(temp, nxt, sources, 0, 0, 6, 6)
        assert (nxt[:, 1] > 0).all()
        assert nxt[0, 1] == pytest.approx(nxt[3, 1])


class TestHeatKernel:
    def test_variants_agree(self):
        cfg = dict(kernel="heat", dim=32, tile_w=8, tile_h=8, iterations=20)
        a = run(make_config(variant="seq", **cfg))
        b = run(make_config(variant="omp_tiled", nthreads=4, **cfg))
        assert np.allclose(a.context.data["temp"], b.context.data["temp"])

    def test_heat_flows_toward_equilibrium(self):
        r = run(make_config(kernel="heat", variant="omp_tiled", dim=32,
                            tile_w=8, tile_h=8, iterations=50, arg="corners"))
        temp = r.context.data["temp"]
        # the cold center warmed up, the sources stayed at 1.0
        assert temp[16, 16] > 0.0
        assert temp[0, 0] == 1.0

    def test_converges_eventually(self):
        r = run(make_config(kernel="heat", variant="seq", dim=16, tile_w=8,
                            tile_h=8, iterations=10000, arg="bar"))
        assert r.early_stop > 0
        # at convergence, no update exceeds the tolerance
        assert r.context.data["max_delta"] <= TOLERANCE

    def test_bad_dataset(self):
        with pytest.raises(ValueError):
            run(make_config(kernel="heat", variant="seq", arg="nope"))

    @pytest.mark.parametrize("dim", [4, 12, 20, 65])
    def test_bar_is_centred(self, dim):
        _, sources = _make_field("bar", dim)
        cols = np.flatnonzero(~np.isnan(sources).all(axis=0))
        left, right = cols[0], dim - 1 - cols[-1]
        assert left == right == dim // 8
        assert len(cols) == dim - 2 * (dim // 8)

    def test_refresh_produces_colors(self):
        r = run(make_config(kernel="heat", variant="seq", dim=32, tile_w=8,
                            tile_h=8, iterations=5, arg="corners"))
        assert len(np.unique(r.image)) > 2


class TestScrollup:
    def test_one_scroll_is_roll(self):
        orig = run(make_config(kernel="scrollup", variant="seq", iterations=64,
                               seed=2))
        one = run(make_config(kernel="scrollup", variant="seq", iterations=1,
                              seed=2))
        base = run(make_config(kernel="none", variant="seq", iterations=1, seed=2))
        assert np.array_equal(one.image, np.roll(base.image, -1, axis=0))
        # dim scrolls return to the original picture
        assert np.array_equal(orig.image, base.image)

    def test_variants_agree(self):
        a = run(make_config(kernel="scrollup", variant="seq", iterations=3, seed=1))
        b = run(make_config(kernel="scrollup", variant="omp_tiled",
                            iterations=3, seed=1, nthreads=4))
        assert np.array_equal(a.image, b.image)


class TestBlurMpi:
    @pytest.mark.parametrize("np_", [2, 4])
    def test_matches_shared_memory(self, np_):
        cfg = dict(kernel="blur", dim=64, tile_w=16, tile_h=16, iterations=3,
                   seed=8)
        ref = run(make_config(variant="omp_tiled_opt", **cfg))
        mpi = run(make_config(variant="mpi_omp", mpi_np=np_, **cfg))
        assert np.array_equal(ref.image, mpi.image)

    def test_misaligned_bands_rejected(self):
        from repro.errors import MpiError

        with pytest.raises(MpiError):
            run(make_config(kernel="blur", variant="mpi_omp", mpi_np=3,
                            dim=64, tile_w=16, tile_h=16))

    def test_ghost_exchange_traffic(self):
        r = run(make_config(kernel="blur", variant="mpi_omp", mpi_np=2,
                            dim=64, tile_w=16, tile_h=16, iterations=4, seed=8))
        for rr in r.rank_results:
            stats = rr.context.mpi.comm.stats
            assert stats.messages_sent >= 4  # one boundary row per iteration
