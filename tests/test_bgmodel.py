import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harpipe.bgmodel import BackgroundModel
from harpipe.config import PipelineConfig

from oracles import gmm_oracle

DEFAULT = PipelineConfig()


def components(model, i):
    """Pixel i's components as (w, mu, var) tuples, in rank order."""
    return list(zip(model.weights[:, i].tolist(), model.means[:, i].tolist(),
                    model.variances[:, i].tolist()))


def run_single_pixel(inputs, cfg=DEFAULT):
    """Drive a 1x1 model; returns (per-step foreground flags, per-step
    component traces as (w, mu, var) tuples)."""
    model = BackgroundModel(cfg, (1, 1))
    flags = []
    traces = []
    for v in inputs:
        mask = model.update_and_classify(np.array([[v]], dtype=np.uint8))
        flags.append(bool(mask[0, 0]))
        traces.append(components(model, 0))
    return flags, traces


def run_oracle(inputs, cfg=DEFAULT):
    oracle = gmm_oracle(cfg)
    flags = []
    traces = []
    for v in inputs:
        flags.append(oracle.step(v))
        traces.append([tuple(c) for c in oracle.components])
    return flags, traces


class TestOracleEquivalence:
    def assert_matches_oracle(self, inputs):
        flags, traces = run_single_pixel(inputs)
        oflags, otraces = run_oracle(inputs)
        assert flags == oflags
        for step, (trace, otrace) in enumerate(zip(traces, otraces)):
            for (w, mu, var), (ow, omu, ovar) in zip(trace, otrace):
                assert w == pytest.approx(ow, rel=1e-9, abs=1e-12), step
                assert mu == pytest.approx(omu, rel=1e-9, abs=1e-12), step
                assert var == pytest.approx(ovar, rel=1e-9), step

    def test_spec_trace_value_jump(self):
        inputs = [50] * 20 + [200] * 5
        flags, _ = run_single_pixel(inputs)
        # frames 21-25 (1-indexed) are the jumped value: all foreground
        assert flags[20:25] == [True] * 5
        assert not any(flags[1:20])
        self.assert_matches_oracle(inputs)

    def test_oscillating_inputs(self):
        self.assert_matches_oracle([50, 200, 50, 200, 120] * 12)

    def test_prefix_reaching_t_exactly(self):
        # the third input matches the rank-1 component; with t equal to the
        # rank-0 weight the prefix ends at rank 0, so the match is foreground
        inputs = [50, 200, 200]
        _, otraces = run_oracle(inputs)
        cfg = PipelineConfig(gmm_threshold=otraces[2][0][0])
        flags, _ = run_single_pixel(inputs, cfg)
        assert flags == run_oracle(inputs, cfg)[0]
        assert flags[2] is True

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_random_traces(self, inputs):
        self.assert_matches_oracle(inputs)

    @given(st.lists(st.integers(0, 255), min_size=2, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_weights_sum_to_one_and_sorted(self, inputs):
        _, traces = run_single_pixel(inputs)
        for trace in traces:
            assert sum(w for w, _, _ in trace) == pytest.approx(1.0, abs=1e-6)
            fits = [w / np.sqrt(var) for w, _, var in trace]
            assert all(a >= b - 1e-12 for a, b in zip(fits, fits[1:]))


class TestModelBehavior:
    def test_constant_sequence_background_after_warmup(self):
        flags, _ = run_single_pixel([80] * 31)
        assert flags[30] is False

    def test_jump_after_warmup_is_foreground(self):
        flags, _ = run_single_pixel([50] * 30 + [200])
        assert flags[30] is True

    def test_mean_converges_on_constant_input(self):
        cfg = PipelineConfig(gmm_alpha=0.05)
        n = int(np.ceil(3 / cfg.gmm_alpha))
        _, traces = run_single_pixel([137] * (n + 1), cfg)
        top_mean = traces[-1][0][1]
        assert abs(top_mean - 137) <= 1.0

    def test_variance_floor_respected(self):
        _, traces = run_single_pixel([100] * 80)
        for trace in traces:
            assert all(var >= DEFAULT.gmm_variance_floor for _, _, var in trace)

    def test_dimension_mismatch(self):
        model = BackgroundModel(DEFAULT, (4, 4))
        with pytest.raises(ValueError):
            model.update_and_classify(np.zeros((2, 2), dtype=np.uint8))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_multi_pixel_matches_independent_pixels(self, seed):
        # every pixel runs its own random trace with jumps, so pixels match,
        # replace and re-sort differently within one frame; each must equal
        # its own scalar oracle. With t = 1 the cumulative weight can end
        # just below t by rounding; then every rank is in the background
        # prefix, as in the oracle.
        rng = np.random.default_rng(seed)
        height, width, n_frames = 4, 6, 40
        jumps = rng.random((n_frames, height, width)) < 0.15
        jumps[0] = True
        levels = rng.integers(0, 256, jumps.shape)
        # each pixel holds its level until its next jump
        last_jump = np.maximum.accumulate(
            np.where(jumps, np.arange(n_frames)[:, None, None], 0), axis=0)
        base = np.take_along_axis(levels, last_jump, axis=0)
        noise = rng.normal(0.0, rng.uniform(0.0, 12.0, (height, width)),
                           (n_frames, height, width))
        frames = np.clip(np.rint(base + noise), 0, 255).astype(np.uint8)
        for k, t in ((1, 0.7), (2, 0.7), (3, 0.7), (5, 0.7), (3, 1.0)):
            cfg = PipelineConfig(gmm_components=k, gmm_threshold=t)
            model = BackgroundModel(cfg, (height, width))
            oracles = [gmm_oracle(cfg) for _ in range(width * height)]
            for step, pixels in enumerate(frames):
                bits = model.update_and_classify(pixels).ravel()
                for i, (v, oracle) in enumerate(zip(pixels.ravel(), oracles)):
                    assert bits[i] == oracle.step(v), (k, t, step, i)
                    for (w, mu, var), (ow, omu, ovar) in zip(
                            components(model, i), oracle.components):
                        assert w == pytest.approx(ow, rel=1e-9, abs=1e-12)
                        assert mu == pytest.approx(omu, rel=1e-9, abs=1e-12)
                        assert var == pytest.approx(ovar, rel=1e-9)

    def test_mask_after_jump(self):
        model = BackgroundModel(DEFAULT, (1, 1))
        first = model.update_and_classify(np.array([[50]], dtype=np.uint8))
        mask = model.update_and_classify(np.array([[250]], dtype=np.uint8))
        assert first.dtype == bool and first.shape == (1, 1) and not first[0, 0]
        assert mask.dtype == bool and mask.shape == (1, 1) and mask[0, 0]
