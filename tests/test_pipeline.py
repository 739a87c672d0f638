import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from harpipe import cli, flowdesc, goodfeat, lkflow, mlp, pipeline, synth
from harpipe.config import PipelineConfig
from harpipe.flowdesc import DESCRIPTOR_DIM
from harpipe.frameio import Frame, encode_pgm
from harpipe.pipeline import (
    WINDOWS_PER_CALL,
    WindowGrouper,
    _track_step,
    majority_label,
    sequence_samples,
)

from conftest import make_frame
from oracles import (
    extract_window_sample,
    sequence_samples_list,
    smooth_texture,
    track_step_one_call,
    window_sample_loop,
    window_starts,
)


def synth_frames(label, seed=0, count=None):
    rng = np.random.default_rng(seed)
    pixels = synth.generate_sequence(label, rng)
    if count is not None:
        pixels = pixels[:count]
    return [Frame(synth.WIDTH, synth.HEIGHT, i, p) for i, p in enumerate(pixels)]


class TestWindowStarts:
    @staticmethod
    def starts(n_frames, cfg):
        blank = np.zeros((120, 160), dtype=np.uint8)
        frames = [make_frame(blank, index=i) for i in range(n_frames)]
        return [start for start, _ in sequence_samples(frames, cfg)]

    def test_non_overlapping_default(self):
        assert self.starts(75, PipelineConfig()) == [0, 25, 50]

    def test_short_sequence(self):
        assert self.starts(24, PipelineConfig()) == []

    def test_overlapping_stride(self):
        cfg = PipelineConfig(window_stride=10)
        assert self.starts(50, cfg) == [0, 10, 20]


class TestExtractWindowSample:
    """The sample of a 25-frame sequence, which holds exactly one window."""

    def test_length_on_moving_texture(self):
        frames = synth_frames("walking", count=25)
        cfg = PipelineConfig()
        [(_, sample)] = sequence_samples(frames, cfg, label="walking")
        assert sample.values.size == 12 * cfg.feature_size
        assert sample.label == "walking"
        assert np.isfinite(sample.values).all()
        assert sample.values.any()

    def test_length_on_blank_frames(self):
        cfg = PipelineConfig(feature_size=7)
        frames = [
            make_frame(np.full((120, 160), 50, dtype=np.uint8), index=i)
            for i in range(25)
        ]
        [(_, sample)] = sequence_samples(frames, cfg)
        assert sample.values.size == 12 * 7
        assert not sample.values.any()

    def test_empty_window_rejected(self):
        assert sequence_samples([], PipelineConfig()) == []

    def test_walking_mean_u_near_speed(self):
        frames = synth_frames("walking", count=25)
        [(_, sample)] = sequence_samples(frames, PipelineConfig())
        u = sample.values.reshape(-1, DESCRIPTOR_DIM)[:, 4]
        live = u[np.abs(u) > 1e-6]
        assert live.size > 0
        # generator speed is ~1 px/frame with +-20% jitter
        assert 0.6 <= np.abs(live).mean() <= 1.4


class TestScalarOracle:
    """Every sample is bit-identical to the per-slot, per-step loop that
    builds PointDescriptor records and averages each slot's stack."""

    @staticmethod
    def assert_bit_identical(frames, cfg):
        # a 25-frame sequence holds exactly one window
        [(_, sample)] = sequence_samples(frames, cfg)
        values = sample.values
        expected = window_sample_loop(frames, cfg)
        assert values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize("label", ["boxing", "clapping", "running", "walking"])
    @pytest.mark.parametrize("feature_size", [1, 10, 14])
    @pytest.mark.parametrize("flow_step", [1, 3])
    def test_synth_windows(self, label, feature_size, flow_step):
        # the second window: there the running figure starts to leave the
        # frame, so some slots are kept after tracking for only part of it
        frames = synth_frames(label, seed=3, count=50)[25:]
        cfg = PipelineConfig(feature_size=feature_size, flow_step=flow_step)
        self.assert_bit_identical(frames, cfg)

    @pytest.mark.parametrize("feature_size", [1, 10, 14])
    def test_degenerate_windows(self, feature_size):
        # criterion 10's featureless window and texture that vanishes
        rng = np.random.default_rng(7)
        blank = [make_frame(np.full((120, 160), 90, dtype=np.uint8), index=i)
                 for i in range(25)]
        vanishing = [make_frame(smooth_texture(rng, 160, 120))] + blank[1:]
        cfg = PipelineConfig(feature_size=feature_size)
        self.assert_bit_identical(blank, cfg)
        self.assert_bit_identical(vanishing, cfg)


class TestSequenceSamples:
    def test_sample_per_window(self):
        frames = synth_frames("running", count=75)
        cfg = PipelineConfig()
        samples = sequence_samples(frames, cfg, label="running")
        assert [start for start, _ in samples] == [0, 25, 50]
        for _, s in samples:
            assert s.values.size == 12 * cfg.feature_size
            assert s.label == "running"

    @pytest.mark.parametrize("label", ["boxing", "clapping", "running", "walking"])
    @pytest.mark.parametrize("feature_size", [1, 10, 14])
    @pytest.mark.parametrize("flow_step,window_stride,count", [
        (1, 0, 50),  # two windows in one call
        (3, 10, 65),  # five overlapping windows in one call
    ])
    def test_matches_per_window_oracle(self, label, feature_size, flow_step,
                                       window_stride, count):
        cfg = PipelineConfig(feature_size=feature_size, flow_step=flow_step,
                             window_stride=window_stride)
        self.assert_matches_oracle(synth_frames(label, seed=11, count=count),
                                   cfg, label)

    @pytest.mark.parametrize("label", ["boxing", "running"])
    @pytest.mark.parametrize("setting", [{"flow_step": 4},
                                         {"pyramid_levels": 1}])
    @pytest.mark.parametrize("window_stride,count", [(0, 50), (10, 65)])
    def test_matches_per_window_oracle_other_settings(
            self, label, setting, window_stride, count):
        cfg = PipelineConfig(window_stride=window_stride, **setting)
        self.assert_matches_oracle(synth_frames(label, seed=11, count=count),
                                   cfg, label)

    def test_negative_zero_descriptors(self, monkeypatch):
        # every descriptor -0.0: the running sums start at +0.0, as the
        # oracle's numpy sum does, so a kept slot pools to +0.0 there too
        def negative_zeros(xy, *args):
            return np.full((len(xy), DESCRIPTOR_DIM), -0.0)

        monkeypatch.setattr(flowdesc, "point_descriptors", negative_zeros)
        frames = synth_frames("walking", seed=11, count=50)
        self.assert_matches_oracle(frames, PipelineConfig(), "walking")

    @staticmethod
    def assert_matches_oracle(frames, cfg, label):
        samples = sequence_samples(frames, cfg, label=label)
        starts = window_starts(len(frames), cfg)
        assert [start for start, _ in samples] == starts
        for start, sample in samples:
            expected = extract_window_sample(
                frames[start : start + cfg.window_frames], cfg, label=label)
            assert sample.label == label
            assert (sample.values.view(np.int64).tolist()
                    == expected.values.view(np.int64).tolist())


class TestJacobianPrecondition:
    def test_every_centre_tracked(self, monkeypatch):
        # flow_jacobian reads its one-sided differences against the velocity
        # of a point the tracker kept; at offset 40 many kept points lose a
        # probe, so those differences are taken
        one_sided = {}
        real = flowdesc.flow_jacobian

        def checked(uv, probe_uv, probe_ok, h):
            lone = probe_ok[:, ::2] != probe_ok[:, 1::2]
            one_sided[h] = one_sided.get(h, 0) + int(lone.any(axis=1).sum())
            return real(uv, probe_uv, probe_ok, h)

        monkeypatch.setattr(flowdesc, "flow_jacobian", checked)
        rng = np.random.default_rng(7)
        blank = [make_frame(np.full((120, 160), 90, dtype=np.uint8), index=i)
                 for i in range(25)]
        vanishing = [make_frame(smooth_texture(rng, 160, 120))] + blank[1:]
        cases = [synth_frames(label) for label in mlp.ACTION_LABELS] + [blank, vanishing]
        for offset in (2.0, 40.0):
            for frames in cases:
                sequence_samples(frames, PipelineConfig(jacobian_probe_offset=offset))
        assert one_sided.keys() == {2.0, 40.0}
        assert one_sided[40.0] > 0


class TestTrackStep:
    @pytest.mark.parametrize("label", mlp.ACTION_LABELS)
    def test_matches_one_call_oracle(self, label):
        # the points of two sequences, stacked as two images, over every flow
        # step of a window: only the invariants come from the probes, whose
        # tracks the two steps start differently
        cfg = PipelineConfig()
        sequences = [synth_frames(label, seed=s, count=cfg.window_frames)
                     for s in (0, 1)]

        def pyramid(k):
            stack = np.stack([frames[k].pixels for frames in sequences])
            return lkflow.build_pyramid(stack, cfg.pyramid_levels)

        found = [goodfeat.detect_good_features(frames[0].pixels, cfg)[:, :2]
                 for frames in sequences]
        xy = np.concatenate(found)
        image = np.repeat(np.arange(len(found)), [len(f) for f in found])
        pi = pyramid(0)
        for k in range(cfg.flow_step, cfg.window_frames, cfg.flow_step):
            pj = pyramid(k)
            kept, new_xy, uv, invariants, intensity = _track_step(
                pi, pj, xy, image, cfg)
            expected = track_step_one_call(pi, pj, xy, image, cfg)
            for got, want in zip((kept, new_xy, uv, intensity),
                                 expected[:3] + expected[4:]):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert np.isfinite(invariants).all()
            xy, image, pi = new_xy, image[kept], pj
        assert len(xy) > 0

    def test_probe_on_its_point_takes_its_track(self, monkeypatch):
        # at offset 2**-47, 64 + h rounds to 64 but 64 - h does not, nor
        # 50 +- h or 40 +- h: the probe that lands on its point carries the
        # point's own velocity, bit for bit, and counts as tracked
        cfg = PipelineConfig(jacobian_probe_offset=2.0**-47)
        first = smooth_texture(np.random.default_rng(3), 160, 120)
        pi, pj = (lkflow.build_pyramid(f, cfg.pyramid_levels)
                  for f in (first, np.roll(first, (1, 2), axis=(0, 1))))
        xy = np.array([[64.0, 64.0], [64.0, 50.0], [40.0, 64.0]])
        seen = []
        real = flowdesc.flow_jacobian

        def spy(uv, probe_uv, probe_ok, h):
            seen.append((uv, probe_uv, probe_ok))
            return real(uv, probe_uv, probe_ok, h)

        monkeypatch.setattr(flowdesc, "flow_jacobian", spy)
        kept, *_ = _track_step(pi, pj, xy, np.zeros(len(xy), dtype=np.intp), cfg)
        assert kept.all()
        [(uv, probe_uv, probe_ok)] = seen
        # +x probes (column 0) of the points at x = 64, +y probes (column 2)
        # of the points at y = 64
        on_point = [(0, 0), (1, 0), (0, 2), (2, 2)]
        for k, probe in on_point:
            assert probe_uv[k, probe].tobytes() == uv[k].tobytes()
            assert probe_ok[k, probe]


class TestStreamedFrames:
    """sequence_samples reads its frames once, as a stream, and holds only
    one window group of them; every value is bit-identical to the path that
    holds the whole list."""

    @staticmethod
    def stream(frames):
        # fresh pixel arrays, so a frame that nothing holds is freed
        for f in frames:
            yield Frame(f.width, f.height, f.index, f.pixels.copy())

    @pytest.fixture(scope="class")
    def three_sequences(self):
        labels = ["boxing", "running", "walking"]
        pixels = [f.pixels for seed, label in enumerate(labels)
                  for f in synth_frames(label, seed=seed)]
        return [Frame(synth.WIDTH, synth.HEIGHT, i, p)
                for i, p in enumerate(pixels)]

    @pytest.mark.parametrize("window_stride,count,windows", [
        (0, 225, 9),  # groups of 8 and 1 windows
        (10, 225, 21),  # overlapping windows
        (30, 225, 7),  # frames between windows belong to none
        (0, 24, 0),  # shorter than one window
    ])
    def test_bit_identical_to_list_path(self, three_sequences, window_stride,
                                        count, windows):
        cfg = PipelineConfig(window_stride=window_stride)
        self.assert_bit_identical(three_sequences[:count], cfg, windows)

    @pytest.mark.parametrize("setting", [{"flow_step": 4},
                                         {"pyramid_levels": 1}])
    @pytest.mark.parametrize("window_stride,windows", [(0, 9), (10, 21)])
    def test_bit_identical_to_list_path_other_settings(
            self, three_sequences, setting, window_stride, windows):
        cfg = PipelineConfig(window_stride=window_stride, **setting)
        self.assert_bit_identical(three_sequences, cfg, windows)

    def assert_bit_identical(self, frames, cfg, windows):
        expected = sequence_samples_list(frames, cfg)
        assert len(expected) == windows
        for source in (self.stream(frames), frames):
            got = sequence_samples(source, cfg, label="boxing")
            assert [s for s, _ in got] == [s for s, _ in expected]
            for (_, sample), (_, values) in zip(got, expected):
                assert sample.label == "boxing"
                assert (sample.values.view(np.int64).tolist()
                        == values.view(np.int64).tolist())

    @pytest.mark.parametrize("window_stride", [0, 10])
    def test_holds_one_group(self, three_sequences, window_stride):
        cfg = PipelineConfig(window_stride=window_stride)
        refs, most = [], 0

        def watched():
            nonlocal most
            for f in self.stream(three_sequences):
                refs.append(weakref.ref(f.pixels))
                most = max(most, sum(ref() is not None for ref in refs))
                yield f

        sequence_samples(watched(), cfg)
        group = (WINDOWS_PER_CALL - 1) * cfg.stride + cfg.window_frames
        assert most <= group

    @pytest.mark.parametrize("setting,count,most_read", [
        # 3 windows of 9 read frames each
        ({}, 75, 27),
        # overlapping windows read frames 0, 4, ..., 24 from each start 0,
        # 10, ...: the first group (starts 0 to 70) runs once frame 94
        # arrives, and just before it the held frames are the even ones from
        # 0 to 92 but 2 and 6, which no window reads, 45 frames; with frame
        # 93, still in the caller's hands, 46
        ({"window_stride": 10, "flow_step": 4}, 225, 46),
    ])
    def test_holds_only_read_frames(self, three_sequences, setting, count,
                                    most_read):
        # a frame is read as a window's first frame or one of its flow-step
        # frames; any other frame is dropped once the next one is taken. A
        # stream's length is not known ahead, so a window that it ends before
        # completing counts too
        cfg = PipelineConfig(**setting)
        steps = (cfg.window_frames - 1) // cfg.flow_step
        read = {s + k * cfg.flow_step for s in range(0, count, cfg.stride)
                for k in range(steps + 1)}
        refs, most = [], 0

        def check():
            # the frame taken last may still be in the caller's hands
            nonlocal most
            alive = {i for i, ref in enumerate(refs) if ref() is not None}
            assert alive - {len(refs) - 1} <= read
            most = max(most, len(alive))

        def watched():
            for f in self.stream(three_sequences[:count]):
                check()
                refs.append(weakref.ref(f.pixels))
                yield f
            check()  # as the last group runs

        sequence_samples(watched(), cfg)
        assert most == most_read

    def test_holds_only_pending_reads_across_sequences(self, three_sequences):
        # at the defaults a 60-frame sequence completes the windows at 0 and
        # 25 and ends the one at 50 after 10 frames; a 160-frame one then
        # completes 6 more, which fill the group, and ends the one at 150
        cfg = PipelineConfig()
        refs = []

        def watched(frames):
            for f in self.stream(frames):
                refs.append(weakref.ref(f.pixels))
                yield f

        def alive():
            return {i for i, ref in enumerate(refs) if ref() is not None}

        grouper = WindowGrouper(cfg)
        assert grouper.add(watched(three_sequences[:60])) == [0, 25]
        # once a sequence ends, only the frames its pending windows read
        # stay held
        assert alive() == {s + k for s in (0, 25)
                           for k in range(0, cfg.window_frames, cfg.flow_step)}
        assert grouper.add(watched(three_sequences[60:220])) == list(range(0, 126, 25))
        assert alive() == set()
        assert len(grouper.finish()) == WINDOWS_PER_CALL


class TestWindowFrames:
    """The frames each window gets, recorded in place of the tracker, over
    sequences of several lengths, some shorter than a window. Each frame's
    one pixel holds its number in the stream of all of them."""

    LENGTHS = (61, 10, 26, 3, 140, 0, 55)

    @pytest.mark.parametrize("settings", [
        {},
        {"window_frames": 26},  # flow_step 3 leaves each window's last frame unread
        {"window_frames": 26, "window_stride": 30},  # frames between windows
        {"window_frames": 12, "flow_step": 5, "window_stride": 4},  # 3 open at once
    ])
    def test_each_window_gets_its_read_frames(self, monkeypatch, settings):
        cfg = PipelineConfig(**settings)
        steps = (cfg.window_frames - 1) // cfg.flow_step
        groups = []  # each group's windows, as the numbers of their frames

        def recorder(windows, cfg):
            groups.append([[int(p[0, 0]) for p in read] for read in windows])
            return np.zeros((len(windows), DESCRIPTOR_DIM * cfg.feature_size))

        monkeypatch.setattr(pipeline, "_window_samples", recorder)

        # every window that opens, as (sequence, first frame's number, its
        # rank among the full windows or None)
        opened, offsets, full = [], [], 0
        for k, n in enumerate(self.LENGTHS):
            offsets.append(sum(self.LENGTHS[:k]))
            for s in range(0, n, cfg.stride):
                rank = full if s + cfg.window_frames <= n else None
                full += rank is not None
                opened.append((k, offsets[k] + s, rank))
        refs = []

        def check(current):
            # a frame that no pending or open window reads is dropped, but
            # the one taken last may still be in the caller's hands
            taken, ran = len(refs), sum(map(len, groups))
            reads = set()
            for k, first, rank in opened:
                complete = first + cfg.window_frames <= taken
                if first < taken and (k == current and not complete
                                      or complete and rank is not None
                                      and rank >= ran):
                    reads |= {first + j * cfg.flow_step for j in range(steps + 1)}
            alive = {g for g, ref in enumerate(refs) if ref() is not None}
            assert alive - {taken - 1} <= reads

        def watched(k):
            for i in range(self.LENGTHS[k]):
                check(k)
                pixels = np.full((1, 1), offsets[k] + i)
                refs.append(weakref.ref(pixels))
                yield Frame(1, 1, i, pixels)
            check(k)

        grouper = WindowGrouper(cfg)
        for k, n in enumerate(self.LENGTHS):
            assert grouper.add(watched(k)) == window_starts(n, cfg)
        assert len(grouper.finish()) == full
        assert not any(ref() is not None for ref in refs)
        expected = [[first + j * cfg.flow_step for j in range(steps + 1)]
                    for _, first, rank in opened if rank is not None]
        assert [w for group in groups for w in group] == expected
        assert all(len(group) == WINDOWS_PER_CALL for group in groups[:-1])
        assert 0 < len(groups[-1]) <= WINDOWS_PER_CALL


class TestExtractSplit:
    """extract_split streams every sequence of a split through one grouper,
    whose groups span sequences; each window's values are bit-identical to
    the per-sequence path that holds the whole list."""

    # 24 frames hold no window, and no window count divides 8
    LENGTHS = (75, 24, 50, 100)

    @pytest.fixture(scope="class")
    def split(self, tmp_path_factory):
        """A split with one sequence per class, of LENGTHS frames; the
        100-frame one joins two synth sequences."""
        root = tmp_path_factory.mktemp("split")
        sequences = []
        for seed, (label, count) in enumerate(zip(mlp.ACTION_LABELS, self.LENGTHS)):
            pixels = [f.pixels for s in (seed, seed + 4)
                      for f in synth_frames(label, seed=s)][:count]
            frames = [Frame(synth.WIDTH, synth.HEIGHT, i, p)
                      for i, p in enumerate(pixels)]
            seq_dir = root / label / "seq_000"
            seq_dir.mkdir(parents=True)
            for f in frames:
                (seq_dir / f"frame_{f.index:03d}.pgm").write_bytes(encode_pgm(f))
            sequences.append((label, str(seq_dir), frames))
        return root, sequences

    @pytest.mark.parametrize("settings,windows", [
        ({}, (3, 0, 2, 4)),  # groups of 8 and 1
        ({"window_stride": 10, "flow_step": 4}, (6, 0, 3, 8)),  # 8, 8 and 1
    ])
    def test_bit_identical_to_per_sequence_path(self, split, settings, windows,
                                                capsys):
        root, sequences = split
        cfg = PipelineConfig(**settings)
        values, labels, seq_ids, seq_dirs = cli.extract_split(str(root), cfg)
        expected = [sequence_samples_list(frames, cfg) for _, _, frames in sequences]
        assert [len(e) for e in expected] == list(windows)
        assert (values.view(np.int64).tolist()
                == [v.view(np.int64).tolist() for e in expected for _, v in e])
        assert labels.tolist() == [mlp.label_index(label)
                                   for (label, _, _), e in zip(sequences, expected)
                                   for _ in e]
        assert seq_ids.tolist() == [k for k, e in enumerate(expected) for _ in e]
        assert seq_dirs == [seq_dir for _, seq_dir, _ in sequences]
        assert capsys.readouterr().err.splitlines() == [
            f"extracted {n} samples from {label}"
            for (label, _, _), n in zip(sequences, windows)]


def write_raw(path, frames):
    path.write_bytes(b"".join(f.pixels.tobytes() for f in frames))


def constant_model(path):
    """A model that scores every sample the same, for the default config."""
    biases = np.full(4, -1.0)
    biases[0] = 1.0
    n_inputs = PipelineConfig().feature_size * DESCRIPTOR_DIM
    mlp.save_model(
        mlp.MlpModel([n_inputs, 4], [np.zeros((4, n_inputs))], [biases], 1.0, 1.0,
                     np.zeros(n_inputs), np.ones(n_inputs)),
        str(path),
    )


# valid detector, tracker and Jacobian settings, out to the extremes that
# config accepts; the iteration cap and window sides stay small enough to run
# many examples
EXTRACTION_SETTINGS = st.fixed_dictionaries({
    "quality_rel": st.floats(1e-9, 1.0),
    "min_distance": st.one_of(st.floats(0.0, 300.0), st.just(float("inf"))),
    "tensor_half_window": st.integers(1, 6),
    "pyramid_levels": st.integers(1, 6),
    "track_half_window": st.integers(1, 20),
    "track_max_iterations": st.integers(1, 30),
    "track_convergence_eps": st.floats(1e-12, 100.0),
    "track_residual_max": st.one_of(st.floats(1e-6, 1e6), st.just(float("inf"))),
    "jacobian_probe_offset": st.one_of(
        st.floats(5e-324, 1e-6, allow_subnormal=True), st.floats(1e-6, 1e4)),
})


class TestFiniteSamples:
    @seed(11)
    @given(EXTRACTION_SETTINGS, st.sampled_from(mlp.ACTION_LABELS))
    @settings(max_examples=40, deadline=None)
    def test_every_value_finite(self, settings, label):
        frames = synth_frames(label, count=25)
        [(_, sample)] = sequence_samples(frames, PipelineConfig(**settings))
        assert np.isfinite(sample.values).all(), settings


class TestClassify:
    def test_too_short_sequence(self, tmp_path, capsys):
        # 24 frames hold no full 25-frame window, so classify prints no
        # window line and exits with a data error
        raw = tmp_path / "short.raw"
        write_raw(raw, synth_frames("boxing", count=24))
        model = tmp_path / "constant.txt"
        constant_model(model)
        rc = cli.main(["classify", str(raw), str(model),
                       "--raw", f"{synth.WIDTH}x{synth.HEIGHT}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"data error: {raw}: sequence has 24 frames, "
                                "needs >= 25\n")

    def test_tracker_calls_bounded_on_long_streams(self, tmp_path, monkeypatch,
                                                   capsys):
        # with a stride of 8, the 50-frame stream holds 4 windows, whose
        # probes, 4 per slot, fill one call; 8 times as many frames fill
        # groups of 8 windows, yet must not make a call larger
        sizes = []
        track_points = lkflow.track_points

        def spy(pi, pj, xy, *args, **kwargs):
            sizes.append(len(xy))
            return track_points(pi, pj, xy, *args, **kwargs)

        monkeypatch.setattr(lkflow, "track_points", spy)
        model = tmp_path / "constant.txt"
        constant_model(model)
        frames = [f for seed in range(6) for f in synth_frames("walking", seed)]
        largest = {}
        for n_frames in (50, 400):
            raw = tmp_path / f"stream_{n_frames}.raw"
            write_raw(raw, frames[:n_frames])
            sizes.clear()
            rc = cli.main(["classify", str(raw), str(model), "--set",
                           "window_stride=8",
                           "--raw", f"{synth.WIDTH}x{synth.HEIGHT}"])
            assert rc == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == (n_frames - 25) // 8 + 1
            largest[n_frames] = max(sizes)
        # a call holds either the points of every slot of 8 windows or at
        # most the 4 Jacobian probes of each slot of 4 windows
        bound = 16 * PipelineConfig().feature_size
        assert largest[400] <= largest[50] <= bound


class TestMajorityLabel:
    def test_majority(self):
        assert majority_label([2, 2, 3]) == 2

    def test_tie_goes_to_earliest_window(self):
        assert majority_label([3, 1, 3, 1]) == 3
        assert majority_label([1, 3, 1, 3]) == 1

    def test_single_window(self):
        assert majority_label([0]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_label([])
