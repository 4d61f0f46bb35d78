"""Tests for the shared kernel helpers (repro.kernels.api)."""

import numpy as np
import pytest

from repro.core.image import rgba
from repro.kernels.api import (
    SCALAR_PIXEL_WORK,
    VECTOR_PIXEL_WORK,
    clipped_halo,
    merge_channels,
    split_channels,
    synthetic_picture,
)
from repro.util.rng import make_rng
from tests import picture_oracle


class TestChannels:
    def test_split_shapes_and_values(self):
        img = np.array([[rgba(1, 2, 3, 4)]], dtype=np.uint32)
        planes = split_channels(img)
        assert planes.shape == (4, 1, 1)
        assert planes[:, 0, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_merge_roundtrip(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 2**32, (6, 6), dtype=np.uint32)
        assert np.array_equal(merge_channels(split_channels(img)), img)

    def test_merge_clips_out_of_range(self):
        planes = np.array([[[300.0]], [[-5.0]], [[0.0]], [[255.0]]])
        assert int(merge_channels(planes)[0, 0]) == rgba(255, 0, 0, 255)

    def test_merge_rounds_half_to_even(self):
        # np.rint semantics, matching Python's round() in the scalar path
        planes = np.array([[[0.5]], [[1.5]], [[2.5]], [[0.0]]])
        assert int(merge_channels(planes)[0, 0]) == rgba(0, 2, 2, 0)


class TestClippedHalo:
    def test_interior_tile_full_halo(self):
        img = np.arange(64, dtype=np.uint32).reshape(8, 8)
        region, oy, ox = clipped_halo(img, x=2, y=2, w=4, h=4)
        assert region.shape == (6, 6)
        assert (oy, ox) == (1, 1)
        assert region[oy, ox] == img[2, 2]

    def test_corner_tile_clipped(self):
        img = np.zeros((8, 8), dtype=np.uint32)
        region, oy, ox = clipped_halo(img, x=0, y=0, w=4, h=4)
        assert region.shape == (5, 5)
        assert (oy, ox) == (0, 0)

    def test_halo_width(self):
        img = np.zeros((10, 10), dtype=np.uint32)
        region, oy, ox = clipped_halo(img, x=4, y=4, w=2, h=2, halo=2)
        assert region.shape == (6, 6)
        assert (oy, ox) == (2, 2)

    def test_view_not_copy(self):
        img = np.zeros((8, 8), dtype=np.uint32)
        region, oy, ox = clipped_halo(img, 2, 2, 4, 4)
        region[oy, ox] = 99
        assert img[2, 2] == 99


class TestSyntheticPicture:
    def test_deterministic_per_rng_seed(self):
        a = synthetic_picture(32, make_rng(3))
        b = synthetic_picture(32, make_rng(3))
        c = synthetic_picture(32, make_rng(4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_opaque_and_structured(self):
        img = synthetic_picture(64, make_rng(0))
        assert ((img & 0xFF) == 0xFF).all()  # alpha
        # has real structure: many distinct colors
        assert len(np.unique(img)) > 100

    def test_tiny_image(self):
        img = synthetic_picture(2, make_rng(1))
        assert img.shape == (2, 2)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 7, 16, 17, 31, 64, 100, 129, 256])
    def test_equals_full_frame_oracle(self, dim):
        for seed in range(5):
            rng, oracle_rng = make_rng(seed), make_rng(seed)
            img = synthetic_picture(dim, rng)
            want = picture_oracle.synthetic_picture(dim, oracle_rng)
            assert img.dtype == want.dtype == np.uint32
            assert np.array_equal(img, want), (dim, seed)
            # the same draws in the same order: the generators end in step
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestWorkConstants:
    def test_vectorization_factor_is_8(self):
        assert SCALAR_PIXEL_WORK / VECTOR_PIXEL_WORK == pytest.approx(8.0)
