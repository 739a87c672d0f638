import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harpipe import cli
from harpipe.frameio import (
    BadSampleError,
    EmptySequenceError,
    Frame,
    MalformedHeaderError,
    NegativeSampleError,
    PnmError,
    RgbFrame,
    TruncatedDataError,
    UnsupportedMaxvalError,
    decode_pnm,
    encode_pgm,
    load_sequence,
    resize_bilinear,
    to_grayscale,
)

from conftest import make_frame
from oracles import resize_bilinear_ix


class TestDecodePnm:
    def test_p5_basic(self):
        f = decode_pnm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
        assert isinstance(f, Frame)
        assert (f.width, f.height) == (2, 2)
        assert f.pixels.tolist() == [[0, 64], [128, 255]]

    def test_p5_truncated(self):
        with pytest.raises(TruncatedDataError):
            decode_pnm(b"P5 2 2 255 " + bytes([0, 64, 128]))

    def test_p6_basic(self):
        f = decode_pnm(b"P6 1 1 255 " + bytes([30, 60, 90]))
        assert isinstance(f, RgbFrame)
        assert f.pixels.tolist() == [[[30, 60, 90]]]

    def test_p2_ascii(self):
        f = decode_pnm(b"P2\n2 1 255\n10 200\n")
        assert f.pixels.tolist() == [[10, 200]]

    def test_p3_ascii(self):
        f = decode_pnm(b"P3\n1 1\n255\n1 2 3\n")
        assert isinstance(f, RgbFrame)
        assert f.pixels.tolist() == [[[1, 2, 3]]]

    @pytest.mark.parametrize("data", [
        b"P2 2 1 255\n1 -3\n",  # -3 would wrap to 253 as uint8
        b"P3\n1 1\n255\n1 -2 3\n",
        b"P2 1 1 15\n-1\n",
    ])
    def test_negative_ascii_sample(self, data):
        with pytest.raises(NegativeSampleError):
            decode_pnm(data)
        assert issubclass(NegativeSampleError, BadSampleError)
        assert issubclass(BadSampleError, PnmError)

    @pytest.mark.parametrize("data", [
        b"P2 2 1 255\n1_0 +7\n",  # int() would read these as 10 and 7
        b"P2 2 1 255\n+7 1\n",
        b"P2 1 1 255\n0x1\n",
        b"P2 1 1 255\n256\n",
        b"P2 1 1 15\n16\n",
        b"P2 1 1 255\n99999999999999999999\n",  # beyond int64
        b"P5 1 1 15 " + bytes([16]),
    ])
    def test_bad_sample(self, data, tmp_path, capsys):
        with pytest.raises(BadSampleError) as info:
            decode_pnm(data)
        assert type(info.value) is BadSampleError
        (tmp_path / "f.pgm").write_bytes(data)
        assert cli.main(["dump", str(tmp_path)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_low_maxval_rescaled(self):
        f = decode_pnm(b"P2 2 1 15\n0 15\n")
        assert f.pixels.tolist() == [[0, 255]]

    def test_low_maxval_rounds_half_up(self):
        # 1 * 255 / 2 = 127.5 -> 128; 3 * 255 / 6 = 127.5 -> 128
        assert decode_pnm(b"P2 3 1 2\n0 1 2\n").pixels.tolist() == [[0, 128, 255]]
        assert decode_pnm(b"P5 1 1 6 " + bytes([3])).pixels.tolist() == [[128]]
        rgb = decode_pnm(b"P3 1 1 1\n1 0 1\n")
        assert rgb.pixels.tolist() == [[[255, 0, 255]]]

    @given(st.integers(1, 255))
    def test_low_maxval_matches_formula(self, maxval):
        values = list(range(maxval + 1))
        data = f"P2 {len(values)} 1 {maxval}\n".encode() + " ".join(
            map(str, values)).encode()
        got = decode_pnm(data).pixels[0].tolist()
        assert got == [math.floor(v * 255 / maxval + 0.5) for v in values]

    def test_header_comment(self):
        f = decode_pnm(b"P5\n# a comment\n2 1 255\n" + bytes([7, 8]))
        assert f.pixels.tolist() == [[7, 8]]

    def test_maxval_too_large(self):
        with pytest.raises(UnsupportedMaxvalError):
            decode_pnm(b"P5 1 1 65535 " + bytes([0, 0]))

    def test_bad_magic(self):
        with pytest.raises(MalformedHeaderError):
            decode_pnm(b"P7 1 1 255 \0")

    def test_header_cut_short(self):
        with pytest.raises(PnmError):
            decode_pnm(b"P5 2 2")

    def test_non_numeric_header(self):
        with pytest.raises(MalformedHeaderError):
            decode_pnm(b"P5 two 2 255 \0")

    def test_pgm_round_trip(self):
        f = make_frame(np.arange(12, dtype=np.uint8).reshape(3, 4))
        again = decode_pnm(encode_pgm(f))
        assert np.array_equal(again.pixels, f.pixels)


class TestToGrayscale:
    def _gray1(self, r, g, b):
        f = RgbFrame(1, 1, 0, np.array([[[r, g, b]]], dtype=np.uint8))
        return int(to_grayscale(f).pixels[0, 0])

    def test_exact_average(self):
        assert self._gray1(90, 120, 150) == 120

    def test_zero(self):
        assert self._gray1(0, 0, 0) == 0

    def test_rounds_half_up(self):
        assert self._gray1(255, 254, 255) == 255

    @given(st.integers(0, 255))
    def test_equal_channels_identity(self, v):
        assert self._gray1(v, v, v) == v


class TestResizeBilinear:
    def test_identity_size(self):
        f = make_frame(np.arange(16, dtype=np.uint8).reshape(4, 4))
        out = resize_bilinear(f, 4, 4)
        assert np.array_equal(out.pixels, f.pixels)

    def test_constant_any_size(self):
        f = make_frame(np.full((6, 8), 100, dtype=np.uint8))
        out = resize_bilinear(f, 3, 17)
        assert (out.pixels == 100).all()

    def test_320x240_to_working_resolution(self):
        f = make_frame(np.zeros((240, 320), dtype=np.uint8))
        out = resize_bilinear(f, 160, 120)
        assert (out.width, out.height) == (160, 120)

    def test_zero_dimension_rejected(self):
        f = make_frame(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            resize_bilinear(f, 0, 4)

    @given(st.integers(0, 1000), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_preserves_intensity_range(self, seed, out_w, out_h):
        rng = np.random.default_rng(seed)
        f = make_frame(rng.integers(0, 256, size=(9, 11), dtype=np.uint8))
        out = resize_bilinear(f, out_w, out_h)
        assert out.pixels.min() >= f.pixels.min()
        assert out.pixels.max() <= f.pixels.max()

    @pytest.mark.parametrize("in_size,out_size", [
        ((320, 240), (160, 120)), ((11, 9), (4, 5)), ((7, 5), (13, 9)),
        ((9, 11), (9, 4)), ((8, 6), (8, 13)), ((11, 9), (1, 1)),
        ((11, 9), (1, 7)), ((11, 9), (5, 1)), ((1, 1), (3, 2)),
        ((1, 6), (4, 3)), ((160, 120), (320, 240)),
    ])
    def test_matches_ix_oracle(self, in_size, out_size):
        rng = np.random.default_rng(in_size[0] * 1000 + out_size[1])
        f = make_frame(rng.integers(0, 256, size=in_size[::-1], dtype=np.uint8))
        out = resize_bilinear(f, *out_size)
        ref = resize_bilinear_ix(f, *out_size)
        assert out.pixels.dtype == ref.pixels.dtype
        assert np.array_equal(out.pixels, ref.pixels)

    @given(st.integers(0, 1000), st.integers(1, 17), st.integers(1, 17),
           st.integers(1, 23), st.integers(1, 23))
    @settings(max_examples=60, deadline=None)
    def test_matches_ix_oracle_random_sizes(self, seed, in_w, in_h, out_w, out_h):
        rng = np.random.default_rng(seed)
        f = make_frame(rng.integers(0, 256, size=(in_h, in_w), dtype=np.uint8))
        out = resize_bilinear(f, out_w, out_h)
        assert np.array_equal(out.pixels,
                              resize_bilinear_ix(f, out_w, out_h).pixels)

    def test_cascaded_downscale_close_to_direct(self):
        # smooth horizontal gradient; two halvings vs one quartering
        ramp = np.tile(np.linspace(0, 255, 320), (240, 1))
        f = make_frame(np.floor(ramp + 0.5).astype(np.uint8))
        once = resize_bilinear(f, 80, 60)
        twice = resize_bilinear(resize_bilinear(f, 160, 120), 80, 60)
        diff = np.abs(once.pixels.astype(int) - twice.pixels.astype(int))
        assert diff.max() <= 2


class TestLoadSequence:
    def _write_pgms(self, d, n):
        for i in range(n):
            f = make_frame(np.full((4, 4), i, dtype=np.uint8))
            (d / f"frame_{i:03d}.pgm").write_bytes(encode_pgm(f))

    def test_directory_indices(self, tmp_path):
        self._write_pgms(tmp_path, 10)
        frames = list(load_sequence(str(tmp_path), working_resolution=None))
        assert [f.index for f in frames] == list(range(10))
        assert [int(f.pixels[0, 0]) for f in frames] == list(range(10))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptySequenceError):
            list(load_sequence(str(tmp_path)))

    def test_resizes_to_working_resolution(self, tmp_path):
        self._write_pgms(tmp_path, 2)
        frames = list(load_sequence(str(tmp_path), working_resolution=(160, 120)))
        assert all((f.width, f.height) == (160, 120) for f in frames)

    def test_raw_rgb_stream(self, tmp_path):
        path = tmp_path / "stream.raw"
        path.write_bytes(bytes(160 * 120 * 3 * 3))
        frames = list(load_sequence(str(path), raw="160x120:rgb"))
        assert len(frames) == 3
        assert all(isinstance(f, Frame) for f in frames)

    def test_raw_gray_stream_partial_tail_dropped(self, tmp_path):
        path = tmp_path / "stream.raw"
        path.write_bytes(bytes(4 * 4 * 2 + 3))
        frames = list(load_sequence(str(path), raw="4x4", working_resolution=None))
        assert len(frames) == 2

    def test_raw_empty_stream(self, tmp_path):
        path = tmp_path / "stream.raw"
        path.write_bytes(b"")
        with pytest.raises(EmptySequenceError):
            list(load_sequence(str(path), raw="4x4"))

    def test_raw_bad_geometry(self, tmp_path):
        path = tmp_path / "stream.raw"
        path.write_bytes(bytes(16))
        for raw in ("banana", "0x0", "4x0", "-4x4"):
            with pytest.raises(ValueError):
                list(load_sequence(str(path), raw=raw))

    def test_raw_frames_in_order(self, tmp_path):
        path = tmp_path / "stream.raw"
        path.write_bytes(bytes(v for v in range(5) for _ in range(6)))
        frames = list(load_sequence(str(path), raw="3x2", working_resolution=None))
        assert [f.index for f in frames] == list(range(5))
        assert [f.pixels.tolist() for f in frames] == [[[v] * 3] * 2 for v in range(5)]
