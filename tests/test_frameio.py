import contextlib
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from harpipe import cli
from harpipe.frameio import (
    Frame,
    PnmError,
    decode_pnm,
    encode_pgm,
    _tokenize_header,
    load_sequence,
    parse_raw_geometry,
    resize_bilinear,
    to_grayscale,
)

from conftest import make_frame
from oracles import resize_bilinear_ix, tokenize_header_bytewise


class TestDecodePnm:
    def test_p5_basic(self):
        f = decode_pnm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
        assert f.dtype == np.uint8
        assert f.tolist() == [[0, 64], [128, 255]]

    def test_p5_truncated(self):
        with pytest.raises(PnmError, match="expected 4 pixel bytes, got 3"):
            decode_pnm(b"P5 2 2 255 " + bytes([0, 64, 128]))

    def test_p6_basic(self):
        f = decode_pnm(b"P6 1 1 255 " + bytes([30, 60, 90]))
        assert f.dtype == np.uint8
        assert f.tolist() == [[[30, 60, 90]]]

    def test_p2_ascii(self):
        f = decode_pnm(b"P2\n2 1 255\n10 200\n")
        assert f.tolist() == [[10, 200]]

    def test_p3_ascii(self):
        f = decode_pnm(b"P3\n1 1\n255\n1 2 3\n")
        assert f.dtype == np.uint8
        assert f.tolist() == [[[1, 2, 3]]]

    @pytest.mark.parametrize("data", [
        b"P2 2 1 255\n1 -3\n",  # -3 would wrap to 253 as uint8
        b"P3\n1 1\n255\n1 -2 3\n",
        b"P2 1 1 15\n-1\n",
    ])
    def test_negative_ascii_sample(self, data):
        with pytest.raises(PnmError, match="negative pixel sample"):
            decode_pnm(data)

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
        with pytest.raises(PnmError, match="non-decimal pixel sample|"
                           "pixel sample exceeds declared maxval"):
            decode_pnm(data)
        (tmp_path / "f.pgm").write_bytes(data)
        assert cli.main(["dump", str(tmp_path)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_long_numbers(self):
        # values are read exactly, and so reported exactly
        with pytest.raises(PnmError, match="maxval 12345678901 "):
            decode_pnm(b"P2 1 1 12345678901\n1\n")
        with pytest.raises(PnmError, match="expected 1234567890 pixel"):
            decode_pnm(b"P5 1234567890 1 255\n\0")
        # leading zeros are allowed; past int()'s digit limit is an error
        padded = decode_pnm(b"P2 1 1 255\n" + b"0" * 5000 + b"7\n")
        assert padded.tolist() == [[7]]
        with pytest.raises(PnmError, match="5000 digits"):
            decode_pnm(b"P2 1 1 " + b"9" * 5000 + b"\n1\n")
        with pytest.raises(PnmError, match="5000 digits"):
            decode_pnm(b"P2 1 1 255\n" + b"9" * 5000 + b"\n")

    def test_low_maxval_rescaled(self):
        f = decode_pnm(b"P2 2 1 15\n0 15\n")
        assert f.tolist() == [[0, 255]]

    def test_low_maxval_rounds_half_up(self):
        # 1 * 255 / 2 = 127.5 -> 128; 3 * 255 / 6 = 127.5 -> 128
        assert decode_pnm(b"P2 3 1 2\n0 1 2\n").tolist() == [[0, 128, 255]]
        assert decode_pnm(b"P5 1 1 6 " + bytes([3])).tolist() == [[128]]
        rgb = decode_pnm(b"P3 1 1 1\n1 0 1\n")
        assert rgb.tolist() == [[[255, 0, 255]]]

    @given(st.integers(1, 255))
    def test_low_maxval_matches_formula(self, maxval):
        values = list(range(maxval + 1))
        data = f"P2 {len(values)} 1 {maxval}\n".encode() + " ".join(
            map(str, values)).encode()
        got = decode_pnm(data)[0].tolist()
        assert got == [math.floor(v * 255 / maxval + 0.5) for v in values]

    def test_header_comment(self):
        f = decode_pnm(b"P5\n# a comment\n2 1 255\n" + bytes([7, 8]))
        assert f.tolist() == [[7, 8]]

    def test_maxval_too_large(self):
        with pytest.raises(PnmError, match="maxval 65535 outside"):
            decode_pnm(b"P5 1 1 65535 " + bytes([0, 0]))

    def test_bad_magic(self):
        with pytest.raises(PnmError, match="unsupported magic 'P7'"):
            decode_pnm(b"P7 1 1 255 \0")

    def test_header_cut_short(self):
        with pytest.raises(PnmError):
            decode_pnm(b"P5 2 2")

    def test_non_numeric_header(self):
        with pytest.raises(PnmError, match="non-numeric header field"):
            decode_pnm(b"P5 two 2 255 \0")

    def test_pgm_round_trip(self):
        f = make_frame(np.arange(12, dtype=np.uint8).reshape(3, 4))
        again = decode_pnm(encode_pgm(f))
        assert again.dtype == np.uint8
        assert np.array_equal(again, f.pixels)


class TestToGrayscale:
    def _gray1(self, r, g, b):
        gray = to_grayscale(np.array([[[r, g, b]]], dtype=np.uint8))
        assert gray.dtype == np.uint8 and gray.shape == (1, 1)
        return int(gray[0, 0])

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
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = resize_bilinear(pixels, 4, 4)
        assert np.array_equal(out, pixels)
        assert not np.shares_memory(out, pixels)

    def test_constant_any_size(self):
        out = resize_bilinear(np.full((6, 8), 100, dtype=np.uint8), 3, 17)
        assert out.shape == (17, 3)
        assert (out == 100).all()

    def test_320x240_to_working_resolution(self):
        out = resize_bilinear(np.zeros((240, 320), dtype=np.uint8), 160, 120)
        assert out.shape == (120, 160)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4), dtype=np.uint8), 0, 4)

    @given(st.integers(0, 1000), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_preserves_intensity_range(self, seed, out_w, out_h):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
        out = resize_bilinear(pixels, out_w, out_h)
        assert out.min() >= pixels.min()
        assert out.max() <= pixels.max()

    @pytest.mark.parametrize("in_size,out_size", [
        ((320, 240), (160, 120)), ((11, 9), (4, 5)), ((7, 5), (13, 9)),
        ((9, 11), (9, 4)), ((8, 6), (8, 13)), ((11, 9), (1, 1)),
        ((11, 9), (1, 7)), ((11, 9), (5, 1)), ((1, 1), (3, 2)),
        ((1, 6), (4, 3)), ((160, 120), (320, 240)),
    ])
    def test_matches_ix_oracle(self, in_size, out_size):
        rng = np.random.default_rng(in_size[0] * 1000 + out_size[1])
        pixels = rng.integers(0, 256, size=in_size[::-1], dtype=np.uint8)
        out = resize_bilinear(pixels, *out_size)
        ref = resize_bilinear_ix(pixels, *out_size)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)

    @given(st.integers(0, 1000), st.integers(1, 17), st.integers(1, 17),
           st.integers(1, 23), st.integers(1, 23))
    @settings(max_examples=60, deadline=None)
    def test_matches_ix_oracle_random_sizes(self, seed, in_w, in_h, out_w, out_h):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(in_h, in_w), dtype=np.uint8)
        out = resize_bilinear(pixels, out_w, out_h)
        assert np.array_equal(out, resize_bilinear_ix(pixels, out_w, out_h))

    def test_cascaded_downscale_close_to_direct(self):
        # smooth horizontal gradient; two halvings vs one quartering
        ramp = np.tile(np.linspace(0, 255, 320), (240, 1))
        pixels = np.floor(ramp + 0.5).astype(np.uint8)
        once = resize_bilinear(pixels, 80, 60)
        twice = resize_bilinear(resize_bilinear(pixels, 160, 120), 80, 60)
        diff = np.abs(once.astype(int) - twice.astype(int))
        assert diff.max() <= 2


class TestLoadSequence:
    def _write_pgms(self, d, n):
        for i in range(n):
            f = make_frame(np.full((4, 4), i, dtype=np.uint8))
            (d / f"frame_{i:03d}.pgm").write_bytes(encode_pgm(f))

    def test_directory_indices(self, tmp_path):
        self._write_pgms(tmp_path, 10)
        frames = list(load_sequence(str(tmp_path), working_resolution=(4, 4)))
        assert [f.index for f in frames] == list(range(10))
        assert [int(f.pixels[0, 0]) for f in frames] == list(range(10))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no PNM files in"):
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
        # the default working resolution is PipelineConfig's
        assert all((f.width, f.height) == (160, 120) for f in frames)

    def test_rgb_frames_load_to_their_grayscale_resize(self, tmp_path):
        # non-grey samples whose channel sums are not all multiples of 3, so
        # that the channel average rounds
        rng = np.random.default_rng(16)
        samples = rng.integers(0, 256, size=(3, 9, 11, 3), dtype=np.uint8)
        pnm_dir = tmp_path / "pnm"
        pnm_dir.mkdir()
        for i, rgb in enumerate(samples):
            (pnm_dir / f"frame_{i:03d}.ppm").write_bytes(
                b"P6\n11 9\n255\n" + rgb.tobytes())
        stream = tmp_path / "stream.raw"
        stream.write_bytes(samples.tobytes())
        from_pnm = list(load_sequence(str(pnm_dir), working_resolution=(7, 5)))
        from_raw = list(load_sequence(str(stream), working_resolution=(7, 5),
                                      raw="11x9:rgb"))
        assert (samples.sum(axis=3) % 3 != 0).any()
        assert len(from_pnm) == len(from_raw) == len(samples)
        for i, (a, b, rgb) in enumerate(zip(from_pnm, from_raw, samples)):
            want = resize_bilinear_ix(to_grayscale(rgb), 7, 5)
            assert (a.index, a.width, a.height) == (i, 7, 5)
            assert (b.index, b.width, b.height) == (i, 7, 5)
            assert np.array_equal(a.pixels, want)
            assert np.array_equal(b.pixels, want)

    def test_raw_gray_stream_partial_tail_dropped(self, tmp_path):
        path = tmp_path / "stream.raw"
        path.write_bytes(bytes(4 * 4 * 2 + 3))
        frames = list(load_sequence(str(path), raw="4x4", working_resolution=(4, 4)))
        assert len(frames) == 2

    def test_raw_empty_stream(self, tmp_path):
        path = tmp_path / "stream.raw"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="holds no complete frame"):
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
        frames = list(load_sequence(str(path), raw="3x2", working_resolution=(3, 2)))
        assert [f.index for f in frames] == list(range(5))
        assert [f.pixels.tolist() for f in frames] == [[[v] * 3] * 2 for v in range(5)]


# header and sample tokens near the edges of what decodes: small numbers,
# numbers past maxval and int64, tokens too long for int(), and near-numbers
TOKENS = st.one_of(
    st.integers(0, 300).map(str),
    st.integers(0, 10**30).map(str),
    st.sampled_from(["0" * 5000 + "7", "9" * 5000, "-1", "+7", "1_0", "0x1",
                     "\u0667", "1.5", "#", ""]),
    st.text(alphabet="0123456789+-_xX#. \t\n", max_size=6),
)


@st.composite
def pnm_like(draw):
    """Bytes shaped like a PNM file: a magic, header and sample tokens with
    arbitrary separators, then arbitrary binary payload."""
    magic = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6", b"P1", b"P", b""]))
    seps = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # note\n", b""])
    out = magic
    for tok in draw(st.lists(TOKENS, max_size=10)):
        out += draw(seps) + tok.encode("utf-8")
    return out + draw(seps) + draw(st.binary(max_size=40))


# a PNM header's separators, each whitespace byte or a comment that ends in
# a line break or at the end of the data, and its fields: digits with '#'
# inside, NUL and 0xFF bytes, and numbers too long for int()
SEPARATORS = st.one_of(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b""]),
    st.builds(b"#%b%b".__mod__, st.tuples(st.binary(max_size=6),
                                          st.sampled_from([b"\r", b"\n", b""]))),
)
FIELDS = st.one_of(
    st.text(alphabet="0123456789#", min_size=1, max_size=6).map(str.encode),
    st.sampled_from([b"\x00", b"\xff", b"0" * 5000 + b"7", b"9" * 5000]),
)


@st.composite
def header_like(draw):
    """A magic, separated fields and a payload, possibly cut short."""
    pairs = draw(st.lists(st.tuples(SEPARATORS, FIELDS), min_size=1, max_size=4))
    data = (b"P5" + b"".join(sep + field for sep, field in pairs)
            + draw(SEPARATORS) + draw(st.binary(max_size=2)))
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


def dump_exit_code(path: str, *extra: str) -> int:
    """``harpipe dump`` on path, asserting that a failure is reported as a
    one-line error, not a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["dump", path, *extra])
    if rc:
        assert err.getvalue().startswith(("data error: ", "usage error: "))
    return rc


class TestFuzz:
    """Arbitrary input raises only the decoder's own errors, and the CLI
    reports every one of them as a data error."""

    @given(st.one_of(pnm_like(), st.binary(max_size=80)))
    @settings(max_examples=400, deadline=None)
    def test_decode_pnm_raises_only_pnm_errors(self, data):
        try:
            decode_pnm(data)
        except PnmError:
            pass

    @seed(19)
    @given(header_like(), st.integers(1, 3))
    @settings(max_examples=2000, deadline=None)
    def test_tokenizer_matches_byte_loop(self, data, n_tokens):
        def read(tokenize):
            try:
                return tokenize(data, n_tokens)
            except PnmError as e:
                return str(e)

        assert read(_tokenize_header) == read(tokenize_header_bytewise)

    @given(pnm_like())
    @settings(max_examples=100, deadline=None)
    def test_dump_pnm_exits_2(self, data):
        try:
            decode_pnm(data)
            decodes = True
        except PnmError:
            decodes = False
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "frame.pgm"), "wb") as fh:
                fh.write(data)
            assert dump_exit_code(d) == (0 if decodes else 2)

    GEOMETRY = st.one_of(
        st.text(max_size=12),
        st.from_regex(r"\A[0-9 +_\-]{0,6}[xX][0-9 +_\-]{0,6}(:rgb|:RGB)?\Z"),
        st.builds("{}x{}".format, st.integers(0, 10**12), st.integers(0, 10**12)),
    )

    @given(GEOMETRY)
    @settings(max_examples=400, deadline=None)
    def test_raw_geometry_parser(self, raw):
        m = re.fullmatch(r"([0-9]+)x([0-9]+)(:rgb)?", raw.lower())
        try:
            w, h, channels = parse_raw_geometry(raw)
        except ValueError as e:
            assert str(e).startswith("bad raw geometry")
            assert not (m and int(m[1]) and int(m[2]))
        else:
            assert (w, h, channels) == (int(m[1]), int(m[2]), 3 if m[3] else 1)

    @given(GEOMETRY)
    @settings(max_examples=100, deadline=None)
    def test_dump_raw_geometry_exits_2(self, raw):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "stream.raw")
            with open(path, "wb") as fh:
                fh.write(bytes(48))
            try:
                w, h, channels = parse_raw_geometry(raw)
                holds_frame = w * h * channels <= 48
            except ValueError:
                holds_frame = False
            assert dump_exit_code(path, f"--raw={raw}") == (0 if holds_frame else 2)
