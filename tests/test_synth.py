import os
from pathlib import Path

import numpy as np
import pytest

from harpipe import synth
from harpipe.frameio import decode_pnm
from harpipe.mlp import ACTION_LABELS


class TestGenerateSequence:
    def test_frame_count_and_geometry(self):
        rng = np.random.default_rng(0)
        for label in ACTION_LABELS:
            frames = synth.generate_sequence(label, rng)
            assert len(frames) == synth.FRAMES_PER_SEQUENCE
            for f in frames:
                assert f.shape == (synth.HEIGHT, synth.WIDTH)
                assert f.dtype == np.uint8

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            synth.generate_sequence("jumping", np.random.default_rng(0))

    def test_seed_determinism(self):
        a = synth.generate_sequence("walking", np.random.default_rng(5))
        b = synth.generate_sequence("walking", np.random.default_rng(5))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_motion_present(self):
        rng = np.random.default_rng(1)
        for label in ACTION_LABELS:
            frames = synth.generate_sequence(label, rng)
            diff = max(
                np.abs(frames[t].astype(int) - frames[0].astype(int)).max()
                for t in range(1, 9)
            )
            assert diff > 30


class TestWriteCorpus:
    def test_layout_and_counts(self, tmp_path):
        counts = synth.write_corpus(
            str(tmp_path), seed=0, train_per_class=2, test_per_class=1
        )
        assert counts == {"train": 8, "test": 4}
        for split, n in (("train", 2), ("test", 1)):
            for label in ACTION_LABELS:
                seqs = sorted(os.listdir(tmp_path / split / label))
                assert len(seqs) == n
                frames = os.listdir(tmp_path / split / label / seqs[0])
                assert len(frames) == synth.FRAMES_PER_SEQUENCE

    def test_frames_are_valid_pgm(self, tmp_path):
        synth.write_corpus(str(tmp_path), seed=0, train_per_class=1,
                           test_per_class=0)
        seq = tmp_path / "train" / "boxing" / "seq_000"
        pixels = decode_pnm((seq / "frame_000.pgm").read_bytes())
        assert pixels.shape == (synth.HEIGHT, synth.WIDTH)

    def test_same_seed_identical_corpora(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            synth.write_corpus(str(d), seed=9, train_per_class=1,
                               test_per_class=1)
        for root, _, files in os.walk(a):
            rel = os.path.relpath(root, a)
            for name in files:
                pa = os.path.join(root, name)
                pb = os.path.join(b, rel, name)
                assert Path(pa).read_bytes() == Path(pb).read_bytes()
