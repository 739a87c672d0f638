import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harpipe.config import PipelineConfig
from harpipe.goodfeat import (
    detect_good_features,
    min_eigenvalue_map,
    spatial_gradients,
)

from oracles import (
    StructureTensor,
    brute_force_good_features,
    min_eigenvalue,
    structure_tensor_at,
)


def top(n, **settings):
    """The default config asking for the n strongest features."""
    return PipelineConfig(feature_size=n, **settings)


class TestSpatialGradients:
    def test_constant_frame(self):
        ix, iy = spatial_gradients(np.full((5, 5), 42, dtype=np.uint8))
        assert not ix.any() and not iy.any()

    def test_horizontal_ramp(self):
        img = np.tile(np.arange(0, 80, 10, dtype=np.uint8), (5, 1))
        ix, iy = spatial_gradients(img)
        assert (ix[:, 1:-1] == 10).all()
        assert not iy.any()
        assert not ix[:, 0].any() and not ix[:, -1].any()

    def test_vertical_step(self):
        img = np.zeros((6, 5), dtype=np.uint8)
        img[3:] = 100
        _, iy = spatial_gradients(img)
        assert (iy[2] == 50).all() and (iy[3] == 50).all()
        assert not iy[1].any() and not iy[4].any()

    def test_too_small(self):
        with pytest.raises(ValueError):
            spatial_gradients(np.zeros((2, 2), dtype=np.uint8))


class TestStructureTensor:
    def test_constant_region(self):
        f = np.full((7, 7), 9, dtype=np.uint8)
        ix, iy = spatial_gradients(f)
        z = structure_tensor_at(ix, iy, 3, 3, 1)
        assert (z.zxx, z.zxy, z.zyy) == (0.0, 0.0, 0.0)

    def test_horizontal_ramp_window(self):
        img = np.tile(np.arange(0, 140, 20, dtype=np.uint8), (7, 1))
        ix, iy = spatial_gradients(img)
        z = structure_tensor_at(ix, iy, 3, 3, 1)
        assert z.zxx == 9 * 20.0**2
        assert z.zxy == 0.0 and z.zyy == 0.0

    def test_out_of_bounds(self):
        f = np.zeros((5, 5), dtype=np.uint8)
        ix, iy = spatial_gradients(f)
        with pytest.raises(ValueError):
            structure_tensor_at(ix, iy, 0, 2, 1)

    def test_checkerboard_matches_brute_force(self):
        rng = np.random.default_rng(3)
        tile = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        img = np.tile(tile, (6, 6))
        img[:6, :6] = rng.integers(0, 256, (6, 6))
        ix, iy = spatial_gradients(img)
        for (x, y) in [(4, 4), (6, 6), (5, 7)]:
            z = structure_tensor_at(ix, iy, x, y, 2)
            zxx = zxy = zyy = 0.0
            for dy in range(-2, 3):
                for dx in range(-2, 3):
                    gx, gy = ix[y + dy, x + dx], iy[y + dy, x + dx]
                    zxx += gx * gx
                    zxy += gx * gy
                    zyy += gy * gy
            assert (z.zxx, z.zxy, z.zyy) == (zxx, zxy, zyy)
            assert min_eigenvalue(z) > 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.integers(0, 256, (9, 9), dtype=np.uint8)
        ix, iy = spatial_gradients(f)
        z = structure_tensor_at(ix, iy, 4, 4, 2)
        scale = max(z.zxx, z.zyy, 1.0)
        assert z.zxx >= 0 and z.zyy >= 0
        assert z.zxx * z.zyy - z.zxy**2 >= -1e-6 * scale


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(StructureTensor(1, 0, 1)) == 1.0

    def test_diagonal(self):
        assert min_eigenvalue(StructureTensor(2, 0, 5)) == 2.0

    def test_zero(self):
        assert min_eigenvalue(StructureTensor(0, 0, 0)) == 0.0

    @given(st.floats(0, 1e6), st.floats(-1e3, 1e3), st.floats(0, 1e6))
    def test_interlacing(self, zxx, zxy, zyy):
        lam = min_eigenvalue(StructureTensor(zxx, zxy, zyy))
        assert lam <= min(zxx, zyy) + 1e-9 * max(1.0, zxx, zyy)


class TestMinEigenvalueMap:
    @given(st.integers(0, 10_000), st.integers(1, 3),
           st.integers(3, 14), st.integers(3, 14))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_pixel_oracle(self, seed, h, width, height):
        rng = np.random.default_rng(seed)
        f = rng.integers(0, 256, (height, width), dtype=np.uint8)
        ix, iy = spatial_gradients(f)
        lam = min_eigenvalue_map(f, h)
        for y in range(height):
            for x in range(width):
                if h <= x < width - h and h <= y < height - h:
                    expected = min_eigenvalue(structure_tensor_at(ix, iy, x, y, h))
                    assert lam[y, x] == pytest.approx(expected, rel=1e-9, abs=0)
                else:
                    assert lam[y, x] == 0.0


class TestDetectGoodFeatures:
    def test_uniform_frame_empty(self):
        f = np.full((32, 32), 77, dtype=np.uint8)
        assert detect_good_features(f, top(10)).shape == (0, 3)

    def test_white_square_corners(self):
        img = np.zeros((40, 40), dtype=np.uint8)
        img[10:30, 10:30] = 255
        points = detect_good_features(img, top(4))
        assert len(points) == 4
        corners = {(10, 10), (10, 29), (29, 10), (29, 29)}
        for x, y, _ in points:
            assert any(abs(x - cx) <= 1 and abs(y - cy) <= 1
                       for cx, cy in corners)

    def test_max_n_one_is_global_max(self):
        rng = np.random.default_rng(11)
        f = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        cfg = top(1)
        points = detect_good_features(f, cfg)
        lam = min_eigenvalue_map(f, cfg.tensor_half_window)
        assert len(points) == 1
        assert points[0, 2] == lam.max()

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sorted_and_spaced(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        cfg = top(10)
        points = detect_good_features(f, cfg)
        scores = points[:, 2].tolist()
        assert scores == sorted(scores, reverse=True)
        for i, (px, py, _) in enumerate(points):
            for qx, qy, _ in points[i + 1:]:
                assert (px - qx) ** 2 + (py - qy) ** 2 >= cfg.min_distance**2

    @given(st.integers(0, 10_000), st.integers(1, 12),
           st.sampled_from([0.01, 0.05, 0.3, 1.0]),
           st.sampled_from([0.0, 3.5, 7.0, 12.0]), st.integers(1, 3),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_exactly(self, seed, max_n, quality_rel,
                                         min_distance, half_window, blocky):
        rng = np.random.default_rng(seed)
        if blocky:
            # square blocks of a few grey levels: neighbours of equal lambda
            # test the suppression's ties
            block = int(rng.integers(2, 6))
            levels = rng.integers(0, 256, 3, dtype=np.uint8)
            grid = levels[rng.integers(0, 3, (32 // block,) * 2)]
            img = np.kron(grid, np.ones((block, block), dtype=np.uint8))
        else:
            img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        cfg = top(max_n, quality_rel=quality_rel, min_distance=min_distance,
                  tensor_half_window=half_window)
        points = detect_good_features(img, cfg)
        expected = brute_force_good_features(img.tolist(), cfg)
        assert [tuple(p) for p in points.tolist()] == expected
