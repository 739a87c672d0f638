import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from harpipe import lkflow
from harpipe.config import PipelineConfig
from harpipe.goodfeat import detect_good_features
from harpipe.lkflow import (
    TrackStatus,
    build_pyramid,
    sample_windows,
    track_points,
)

from oracles import sample_window, smooth_separable_roll, smooth_texture, track_point

CFG = PipelineConfig()


def shifted_pair(seed, sx, sy, width=160, height=120):
    """Frame pair where every point p in I appears at p + (sx, sy) in J."""
    rng = np.random.default_rng(seed)
    margin = 8
    tex = smooth_texture(rng, width + 2 * margin, height + 2 * margin, passes=1)
    i = tex[margin : margin + height, margin : margin + width]
    j = tex[margin - sy : margin - sy + height, margin - sx : margin - sx + width]
    return i, j


def interior_features(frame, n=20, border=20):
    points = detect_good_features(frame, PipelineConfig(feature_size=4 * n))
    x, y = points[:, 0], points[:, 1]
    inside = ((border <= x) & (x < frame.shape[1] - border)
              & (border <= y) & (y < frame.shape[0] - border))
    return points[inside][:n]


def xy_of(points):
    return points[:, :2]


class TestBuildPyramid:
    def test_three_level_dims(self):
        f = np.zeros((120, 160), dtype=np.uint8)
        pyr = build_pyramid(f, 3)
        assert [lev.shape for lev in pyr] == [(120, 160), (60, 80), (30, 40)]

    def test_constant_stays_constant(self):
        f = np.full((64, 64), 123, dtype=np.uint8)
        pyr = build_pyramid(f, 3)
        for lev in pyr:
            assert np.allclose(lev, 123.0)

    def test_single_level(self):
        f = np.arange(64, dtype=np.uint8).reshape(8, 8)
        pyr = build_pyramid(f, 1)
        assert len(pyr) == 1
        assert np.array_equal(pyr[0], f.astype(np.float64))

    def test_levels_clamped_on_small_frames(self):
        f = np.zeros((20, 20), dtype=np.uint8)
        pyr = build_pyramid(f, 5)
        # one halving would drop below the 16 px minimum side
        assert len(pyr) == 1

    def test_ceil_halving_on_odd_dims(self):
        f = np.zeros((45, 33), dtype=np.uint8)
        pyr = build_pyramid(f, 2)
        assert pyr[1].shape == (23, 17)

    @pytest.mark.parametrize("shape", [
        (33, 33), (45, 33), (33, 45), (37, 51), (120, 160), (121, 161), (240, 320),
    ])
    def test_levels_match_roll_oracle(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for img in (rng.integers(0, 256, shape).astype(np.uint8),
                    rng.uniform(-50.0, 300.0, shape)):
            levels = build_pyramid(img, 4)
            assert len(levels) >= 2
            for fine, coarse in zip(levels, levels[1:]):
                assert np.array_equal(coarse, smooth_separable_roll(fine)[::2, ::2])


    def test_levels_c_contiguous(self):
        img = smooth_texture(np.random.default_rng(12), 200, 150)
        # a frame cut from a larger image has strided pixels
        f = img[10:130, 20:180]
        assert not f.flags.c_contiguous
        stack = np.stack([img[:120, :160], img[30:150, 40:200]])
        for pyr in (build_pyramid(f, 3), build_pyramid(stack, 3)):
            assert len(pyr) == 3
            assert all(lev.flags.c_contiguous for lev in pyr)
            assert pyr[0].dtype == np.uint8
            assert all(lev.dtype == np.float64 for lev in pyr[1:])

    def test_stacked_levels_match_per_image(self):
        rng = np.random.default_rng(14)
        images = [smooth_texture(rng, 161, 121) for _ in range(3)]
        stacked = build_pyramid(np.stack(images), 3)
        assert [lev.shape for lev in stacked] == [(3, 121, 161), (3, 61, 81),
                                                  (3, 31, 41)]
        for k, img in enumerate(images):
            for lev, single in zip(stacked, build_pyramid(img, 3)):
                assert lev[k].tobytes() == single.tobytes()


class TestSampleWindows:
    """``sample_windows`` against ``oracles.sample_window``, which clamps
    every tap of a window that crosses the border on its own."""

    @seed(12)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.integers(0, 3), st.booleans(), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_tap_oracle(self, rng_seed, h, w, stack, as_uint8, hw):
        # stack 0 is one (h, w) image, sampled with image indices all 0
        rng = np.random.default_rng(rng_seed)
        shape = (max(stack, 1), h, w)
        imgs = (rng.integers(0, 256, shape).astype(np.uint8) if as_uint8
                else rng.uniform(0.0, 255.0, shape))
        # anywhere in the image, integer points on each edge, and the corners
        xy = [np.column_stack([rng.uniform(0, w - 1, 12), rng.uniform(0, h - 1, 12)])]
        for x, y in ((rng.integers(0, w, 3), [0] * 3), (rng.integers(0, w, 3), [h - 1] * 3),
                     ([0] * 3, rng.integers(0, h, 3)), ([w - 1] * 3, rng.integers(0, h, 3))):
            xy.append(np.column_stack([x, y]))
        xy.append([[0, 0], [w - 1, 0], [0, h - 1], [w - 1, h - 1]])
        xy = np.concatenate(xy).astype(np.float64)
        image = rng.integers(0, shape[0], len(xy))
        got = (sample_windows(imgs, xy, hw, image) if stack
               else sample_windows(imgs[0], xy, hw, np.zeros(len(xy), np.intp)))
        n = 2 * hw + 1
        assert got.shape == (n, n, len(xy))
        for p, ((x, y), k) in enumerate(zip(xy.tolist(), image)):
            want = sample_window(imgs[k], x, y, hw)
            x0, y0 = np.floor(x - hw), np.floor(y - hw)
            if 0 <= x0 and x0 + n < w and 0 <= y0 and y0 + n < h:
                assert np.array_equal(got[..., p], want), (x, y)
            else:
                np.testing.assert_allclose(got[..., p], want, rtol=0, atol=1e-9,
                                           err_msg=f"{(x, y)}")


class TestTemplateWindows:
    """The residual reuses level 0's template windows, so for points inside
    ``[hw, side - 1 - hw]`` they must equal a fresh ``sample_windows``."""

    @seed(15)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(3, 40),
           st.integers(1, 3), st.booleans(), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_inner_slice_is_sample_windows(self, rng_seed, h, w, stack,
                                           as_uint8, hw):
        hw = min(hw, (min(h, w) - 1) // 2)
        rng = np.random.default_rng(rng_seed)
        shape = (stack, h, w)
        imgs = (rng.integers(0, 256, shape).astype(np.uint8) if as_uint8
                else rng.uniform(0.0, 255.0, shape))
        lo, hi = (hw, hw), (w - 1 - hw, h - 1 - hw)
        # anywhere inside, and on the edges of, the interval
        xy = rng.uniform(lo, hi, (12, 2))
        xy[:4] = np.round(xy[:4])
        xy[4:8] = np.where(rng.integers(0, 2, (4, 2)), lo, hi)
        image = rng.integers(0, stack, len(xy))
        template, _ = lkflow._template_windows(imgs, xy, hw, image)
        want = sample_windows(imgs, xy, hw, image)
        assert template.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestTrackPoint:
    def test_zero_motion_fixed_point(self):
        f, _ = shifted_pair(0, 0, 0)
        pyr = build_pyramid(f, 3)
        t = track_points(pyr, pyr, xy_of(interior_features(f, 10)), CFG)
        assert t.tracked.all()
        assert (np.hypot(*t.dxy.T) <= CFG.track_convergence_eps).all()
        assert (t.residual <= 1.0).all()

    def test_integer_shift_recovery(self):
        f_i, f_j = shifted_pair(1, 3, 0)
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        t = track_points(pi, pj, xy_of(interior_features(f_i)), CFG)
        errors = np.hypot(t.dxy[t.tracked, 0] - 3, t.dxy[t.tracked, 1])
        assert len(errors) >= 10
        assert np.sqrt(np.mean(np.square(errors))) <= 0.25

    def test_forward_backward_symmetry(self):
        f_i, f_j = shifted_pair(2, 4, -2)
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        start = xy_of(interior_features(f_i))
        fwd = track_points(pi, pj, start, CFG)
        back = track_points(pj, pi, fwd.xy[fwd.tracked], CFG)
        both = back.tracked
        gaps = np.hypot(*(back.xy[both] - start[fwd.tracked][both]).T)
        assert (gaps <= 0.5).all()
        assert both.sum() >= 10

    def test_residual_not_worse_than_no_motion(self):
        f_i, f_j = shifted_pair(3, 2, 2)
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        hw = CFG.track_half_window
        img_i, img_j = f_i.astype(np.float64), f_j.astype(np.float64)
        points = interior_features(f_i, 10)
        t = track_points(pi, pj, xy_of(points), CFG)
        for p, tracked, residual in zip(points, t.tracked, t.residual):
            if not tracked:
                continue
            x, y = int(p[0]), int(p[1])
            wi = img_i[y - hw : y + hw + 1, x - hw : x + hw + 1]
            wj = img_j[y - hw : y + hw + 1, x - hw : x + hw + 1]
            at_zero = np.sqrt(np.mean((wi - wj) ** 2))
            assert residual <= at_zero + 1e-9

    def test_flat_region_is_singular(self):
        f = np.full((64, 64), 90, dtype=np.uint8)
        pyr = build_pyramid(f, 2)
        t = track_points(pyr, pyr, np.array([[32.0, 32.0]]), CFG)
        assert t.status[0] == TrackStatus.LOST_SINGULAR

    def test_border_point_is_out_of_bounds(self):
        f, _ = shifted_pair(4, 0, 0)
        pyr = build_pyramid(f, 2)
        t = track_points(pyr, pyr, np.array([[2.0, 60.0]]), CFG)
        assert t.status[0] == TrackStatus.LOST_BOUNDS

    def test_tracked_point_stays_inside_frame(self):
        f_i, f_j = shifted_pair(5, -5, 3)
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        hw = CFG.track_half_window
        t = track_points(pi, pj, xy_of(interior_features(f_i)), CFG)
        x, y = t.xy[t.tracked].T
        assert ((hw <= x) & (x <= f_j.shape[1] - 1 - hw)).all()
        assert ((hw <= y) & (y <= f_j.shape[0] - 1 - hw)).all()

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_shift_equivariance_property(self, sx, sy, seed):
        f_i, f_j = shifted_pair(seed, sx, sy)
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        t = track_points(pi, pj, xy_of(interior_features(f_i)), CFG)
        errors = np.hypot(t.dxy[t.tracked, 0] - sx, t.dxy[t.tracked, 1] - sy)
        assert errors.size
        assert np.sqrt(np.mean(np.square(errors))) <= 0.25


class TestTrackPoints:
    def test_empty_input(self):
        f, _ = shifted_pair(6, 0, 0)
        pyr = build_pyramid(f, 2)
        t = track_points(pyr, pyr, np.zeros((0, 2)), CFG)
        assert t.xy.shape == t.dxy.shape == (0, 2)
        assert t.residual.shape == t.status.shape == (0,)

    def test_all_flat_all_singular(self):
        f = np.full((48, 48), 10, dtype=np.uint8)
        pyr = build_pyramid(f, 2)
        xy = np.array([(x, 24.0) for x in (16.0, 24.0, 32.0)])
        t = track_points(pyr, pyr, xy, CFG)
        assert (t.status == TrackStatus.LOST_SINGULAR).all()

    def test_mixed_corner_and_flat(self):
        f_i, f_j = shifted_pair(7, 3, 0)
        # flatten a region in both frames so flat probes genuinely lose
        for f in (f_i, f_j):
            f[40:80, 40:80] = 100
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        points = interior_features(f_i, 8)
        x, y = points[:, 0], points[:, 1]
        corners = points[~((40 <= x) & (x < 80) & (40 <= y) & (y < 80))]
        xy = np.vstack([xy_of(corners), [[60.0, 60.0]]])
        t = track_points(pi, pj, xy, CFG)
        kept = t.tracked[:-1]
        assert (np.hypot(t.dxy[:-1][kept, 0] - 3, t.dxy[:-1][kept, 1]) <= 0.25).all()
        assert not t.tracked[-1]

    def test_order_preserved(self):
        f_i, f_j = shifted_pair(8, 1, 1)
        pi, pj = build_pyramid(f_i, 2), build_pyramid(f_j, 2)
        xy = xy_of(interior_features(f_i, 5))
        t = track_points(pi, pj, xy, CFG)
        for k in range(len(xy)):
            single = track_points(pi, pj, xy[k : k + 1], CFG)
            assert np.array_equal(t.xy[k], single.xy[0])
            assert np.array_equal(t.dxy[k], single.dxy[0])
            assert t.residual[k] == single.residual[0]
            assert t.status[k] == single.status[0]


    def test_stacked_images_match_one_call_per_image(self):
        rng = np.random.default_rng(13)
        pairs = [shifted_pair(400 + k, *(int(v) for v in rng.integers(-5, 6, 2)))
                 for k in range(3)]
        for f in pairs[1]:
            f[30:70, 30:90] = 77  # flat patch: singular tensors
        pi = build_pyramid(np.stack([fi for fi, _ in pairs]), 3)
        pj = build_pyramid(np.stack([fj for _, fj in pairs]), 3)
        # the frame and beyond, so border and out-of-frame points occur
        xy = np.column_stack([rng.uniform(-5, 165, 120), rng.uniform(-5, 125, 120)])
        xy[:20] = np.round(xy[:20])
        xy[20:30, 0] = CFG.track_half_window
        image = rng.integers(0, len(pairs), len(xy))
        t = track_points(pi, pj, xy, CFG, image)
        for k, (fi, fj) in enumerate(pairs):
            rows = image == k
            single = track_points(build_pyramid(fi, 3), build_pyramid(fj, 3),
                                  xy[rows], CFG)
            for name in ("xy", "dxy", "residual"):
                assert np.array_equal(getattr(t, name)[rows].view(np.int64),
                                      getattr(single, name).view(np.int64)), name
            assert np.array_equal(t.status[rows], single.status)
        assert set(TrackStatus(s) for s in t.status) >= {
            TrackStatus.TRACKED, TrackStatus.LOST_BOUNDS, TrackStatus.LOST_SINGULAR}


class TestGuess:
    def test_zero_guess_is_no_guess(self):
        rng = np.random.default_rng(14)
        f_i, f_j = shifted_pair(14, 4, -3)
        f_i[30:70, 30:90] = f_j[30:70, 30:90] = 77  # singular tensors
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        xy = np.column_stack([rng.uniform(-5, 165, 80), rng.uniform(-5, 125, 80)])
        plain = track_points(pi, pj, xy, CFG)
        zero = track_points(pi, pj, xy, CFG, guess=np.zeros_like(xy))
        for name in ("xy", "dxy", "residual", "status"):
            assert getattr(zero, name).tobytes() == getattr(plain, name).tobytes()
        assert plain.tracked.any() and not plain.tracked.all()

    def test_true_shift_tracked_on_one_level(self):
        f_i, f_j = shifted_pair(15, 7, -5)
        pi, pj = build_pyramid(f_i, 1), build_pyramid(f_j, 1)
        xy = xy_of(interior_features(f_i, 10))
        guess = np.tile([7.0, -5.0], (len(xy), 1))
        t = track_points(pi, pj, xy, CFG, guess=guess)
        assert t.tracked.all()
        error = np.hypot(*(t.dxy - guess).T)
        assert (error <= CFG.track_convergence_eps).all()


def assert_matches_oracle(pi, pj, xy, cfg=CFG):
    """Batched tracks equal one-at-a-time scalar reference tracks."""
    t = track_points(pi, pj, xy, cfg)
    for k, (x, y) in enumerate(xy.tolist()):
        r = track_point(pi, pj, x, y, cfg)
        assert t.status[k] == r.status, (k, x, y)
        assert t.xy[k] == pytest.approx((r.new_x, r.new_y), abs=1e-9)
        assert t.dxy[k] == pytest.approx((r.dx, r.dy), abs=1e-9)
        assert t.residual[k] == pytest.approx(r.residual, abs=1e-9)
    return t


class TestScalarOracle:
    """``track_points`` against the scalar reference ``oracles.track_point``."""

    def test_random_points_on_random_textures(self):
        rng = np.random.default_rng(9)
        statuses = set()
        for trial, (levels, hw) in enumerate([(1, 7), (2, 5), (3, 7), (4, 3)]):
            sx, sy = (int(v) for v in rng.integers(-6, 7, 2))
            f_i, f_j = shifted_pair(200 + trial, sx, sy)
            for f in (f_i, f_j):
                f[30:70, 30:90] = 77  # flat patch: singular tensors
            pi, pj = build_pyramid(f_i, levels), build_pyramid(f_j, levels)
            # the frame and beyond, so border and out-of-frame points occur
            xy = np.column_stack([rng.uniform(-5, 165, 60), rng.uniform(-5, 125, 60)])
            xy[:10] = np.round(xy[:10])
            xy[10:15, 0] = hw
            xy[15:20, 1] = 119 - hw
            t = assert_matches_oracle(pi, pj, xy, PipelineConfig(track_half_window=hw))
            statuses.update(TrackStatus(s) for s in t.status)
        assert statuses >= {TrackStatus.TRACKED, TrackStatus.LOST_BOUNDS,
                            TrackStatus.LOST_SINGULAR}

    def test_criterion_3_shifts(self):
        shifts = [(3, 0), (0, 3), (-4, 2), (6, 0), (2, -2),
                  (-3, -3), (1, 5), (-5, 1), (4, 4), (0, -6)]
        for seed, (sx, sy) in enumerate(shifts):
            f_i, f_j = shifted_pair(100 + seed, sx, sy)
            pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
            assert_matches_oracle(pi, pj, xy_of(interior_features(f_i)))

    def test_residual_rejection(self):
        # unrelated textures: the iteration converges somewhere, but the
        # windows do not match
        f_i, _ = shifted_pair(300, 0, 0)
        f_j, _ = shifted_pair(301, 0, 0)
        pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
        t = assert_matches_oracle(
            pi, pj, xy_of(interior_features(f_i)),
            PipelineConfig(track_residual_max=2.0),
        )
        assert (t.status == TrackStatus.LOST_RESIDUAL).any()
