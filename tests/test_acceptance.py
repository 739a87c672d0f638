"""Acceptance gate: one test per published criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import re
import sys
import time

import numpy as np
import pytest

from harpipe import cli, mlp, synth
from harpipe.config import PipelineConfig
from harpipe.flowdesc import flow_invariants
from harpipe.frameio import Frame
from harpipe.goodfeat import detect_good_features
from harpipe.lkflow import build_pyramid, track_points
from harpipe.pipeline import sequence_samples

from conftest import make_frame
from oracles import brute_force_good_features, smooth_texture
from test_bgmodel import run_oracle, run_single_pixel
from test_flowdesc import jacobian_of
from test_lkflow import interior_features, shifted_pair, xy_of
from test_mlp import gradient_check


def report(number, description, check):
    """Run the check, print one pass/fail line, re-raise on failure.

    Writes to the real stdout so the verdict lines survive pytest's
    output capture.
    """
    try:
        check()
    except BaseException:
        sys.__stdout__.write(f"FAIL criterion {number}: {description}\n")
        raise
    sys.__stdout__.write(f"PASS criterion {number}: {description}\n")


@pytest.fixture(scope="module")
def trained(synth_corpus, tmp_path_factory):
    """Model trained on the full synthetic corpus with default settings,
    shared between the end-to-end criteria."""
    model_path = tmp_path_factory.mktemp("accept") / "model.txt"
    t0 = time.perf_counter()
    assert cli.main(["train", str(synth_corpus / "train"), str(model_path)]) == 0
    return {"path": model_path, "train_seconds": time.perf_counter() - t0}


def test_criterion_1_gmm_oracle_equivalence():
    def check():
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        traces = [
            [50] * 20 + [200] * 5,
            list(rng.integers(0, 256, 100)),
        ]
        for _ in range(8):
            n = int(rng.integers(1, 101))
            traces.append(list(rng.integers(0, 256, n)))
        for inputs in traces:
            flags, got = run_single_pixel(inputs)
            oflags, want = run_oracle(inputs)
            assert flags == oflags
            for trace, otrace in zip(got, want):
                assert sum(w for w, _, _ in trace) == pytest.approx(1.0, abs=1e-6)
                for (w, mu, var), (ow, omu, ovar) in zip(trace, otrace):
                    assert w == pytest.approx(ow, rel=1e-9, abs=1e-12)
                    assert mu == pytest.approx(omu, rel=1e-9, abs=1e-12)
                    assert var == pytest.approx(ovar, rel=1e-9)
        assert time.perf_counter() - t0 < 1.0

    report(1, "GMM single-pixel traces match the scalar reference to 1e-9",
           check)


def test_criterion_2_good_feature_oracle_equivalence():
    def check():
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        for _ in range(25):
            img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
            cfg = PipelineConfig(feature_size=10)
            got = detect_good_features(img, cfg)
            want = brute_force_good_features(img.tolist(), cfg)
            assert [tuple(p) for p in got.tolist()] == want
        assert time.perf_counter() - t0 < 5.0

    report(2, "corner detection equals the brute-force oracle exactly on "
              "25 random 32x32 frames", check)


def test_criterion_3_flow_accuracy():
    def check():
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        shifts = [(3, 0), (0, 3), (-4, 2), (6, 0), (2, -2),
                  (-3, -3), (1, 5), (-5, 1), (4, 4), (0, -6)]
        for seed, (sx, sy) in enumerate(shifts):
            f_i, f_j = shifted_pair(100 + seed, sx, sy)
            pi, pj = build_pyramid(f_i, 3), build_pyramid(f_j, 3)
            start = xy_of(interior_features(f_i))
            fwd = track_points(pi, pj, start, PipelineConfig())
            ok = fwd.tracked
            errors = list(np.hypot(fwd.dxy[ok, 0] - sx, fwd.dxy[ok, 1] - sy))
            back = track_points(pj, pi, fwd.xy[ok], PipelineConfig())
            fb_errors = list(
                np.hypot(*(back.xy - start[ok])[back.tracked].T)
            )
            assert errors, f"no tracked points for shift {(sx, sy)}"
            assert np.mean(errors) <= 0.25
            assert fb_errors and np.mean(fb_errors) <= 0.5
        assert time.perf_counter() - t0 < 10.0

    report(3, "integer shifts up to 6 px recovered within 0.25 px, "
              "forward-backward within 0.5 px", check)


def test_criterion_4_invariant_analytics():
    def check():
        assert flow_invariants(np.array([[1, 0], [0, 1]])) == (2, 0, 1, 1)
        w = 0.5
        div, vor, g, s = flow_invariants(np.array([[0, -w], [w, 0]]))
        assert (div, vor, g) == (0.0, 2 * w, w * w)
        assert abs(s) < 1e-12
        assert flow_invariants(np.array([[0, 1], [0, 0]])) == (0, -1, 0, -0.25)

        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c, d, e, g_ = rng.uniform(-2, 2, 6)
            jac = jacobian_of(
                lambda x, y: (a * x + b * y + c, d * x + e * y + g_),
                (float(rng.uniform(10, 150)), float(rng.uniform(10, 110))),
            )
            for got, want in zip(jac.ravel(), (a, b, d, e)):
                assert got == pytest.approx(want, abs=1e-9)

    report(4, "analytic Jacobian invariants exact; affine-field recovery "
              "to 1e-9", check)


def test_criterion_5_gradient_check():
    def check():
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        for _ in range(100):
            sizes = [int(rng.integers(1, 5))
                     for _ in range(int(rng.integers(2, 4)))]
            m = mlp.init_model(sizes, seed=int(rng.integers(1 << 30)),
                               a=float(rng.uniform(0.5, 2.0)),
                               beta=float(rng.uniform(0.5, 2.0)))
            x = rng.normal(size=sizes[0])
            target = rng.uniform(-0.8, 0.8, size=sizes[-1]) * m.beta
            assert gradient_check(m, x, target) < 1e-4
        assert time.perf_counter() - t0 < 10.0

    report(5, "backprop matches central differences on 100 random MLPs",
           check)


def test_criterion_6_rprop_behavior():
    def check():
        for seed in range(20):
            rng = np.random.default_rng(seed)
            exponents = rng.uniform(-3, 3, 4)  # condition number up to 1e6
            c = 10.0 ** exponents
            target = rng.uniform(-3, 3, 4)
            m = mlp.MlpModel([4, 1], [rng.uniform(-5, 5, (1, 4))], [np.zeros(1)],
                             1.0, 1.0, np.zeros(4), np.ones(4))
            s = mlp.init_rprop(m)
            for _ in range(500):
                w = m.weights[0][0]
                grad = (2 * c * (w - target))[None, :]
                mlp.rprop_step(m, [grad], [np.zeros(1)], s)
                assert (s.step >= s.cfg.rprop_step_min).all()
                assert (s.step <= s.cfg.rprop_step_max).all()
            assert np.abs(m.weights[0][0] - target).max() < 10 * s.cfg.rprop_step_min

    report(6, "RPROP converges on ill-conditioned diagonal quadratics for "
              "20 seeds with step bounds intact", check)


def test_criterion_7_end_to_end_accuracy(synth_corpus, trained, capsys):
    def check():
        t0 = time.perf_counter()
        rc = cli.main(["evaluate", str(synth_corpus / "test"),
                       str(trained["path"])])
        assert rc == 0
        out = capsys.readouterr().out
        overall = float(re.search(r"csv,overall,+([0-9.]+)", out).group(1))
        assert overall >= 90.0, f"held-out sequence accuracy {overall}%"
        total = trained["train_seconds"] + (time.perf_counter() - t0)
        assert total < 300.0, f"end-to-end run took {total:.0f}s"

    report(7, "synthetic-corpus held-out sequence accuracy >= 90% within "
              "the 5-minute budget", check)


def test_criterion_8_feature_size_trend(synth_corpus, capsys):
    def check():
        rc = cli.main(["sweep", str(synth_corpus / "train"),
                       str(synth_corpus / "test"),
                       "--values", "8", "10", "14"])
        assert rc == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines()
                   if l.startswith("csv,overall_percent,"))
        acc8, acc10, acc14 = (float(v) for v in row.split(",")[2:])
        assert acc14 >= acc10, (acc8, acc10, acc14)
        assert acc10 >= acc8 - 2.0, (acc8, acc10, acc14)

    report(8, "accuracy(N=14) >= accuracy(N=10) >= accuracy(N=8) - 2 points",
           check)


def test_criterion_9_determinism(synth_corpus, trained, tmp_path, capsys):
    def check():
        again = tmp_path / "model_again.txt"
        assert cli.main(["train", str(synth_corpus / "train"),
                         str(again)]) == 0
        capsys.readouterr()
        assert again.read_bytes() == trained["path"].read_bytes()

        reports = []
        for _ in range(2):
            assert cli.main(["evaluate", str(synth_corpus / "test"),
                             str(again)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    report(9, "repeated train+evaluate runs are byte-identical", check)


def test_criterion_10_sample_dimensional_uniformity():
    def check():
        rng = np.random.default_rng(7)
        cases = []
        for label in mlp.ACTION_LABELS:
            pixels = synth.generate_sequence(label, rng)[:50]
            cases.append([Frame(synth.WIDTH, synth.HEIGHT, i, p)
                          for i, p in enumerate(pixels)])
        # degenerate sequences: featureless, and texture that vanishes
        blank = [make_frame(np.full((120, 160), 90, dtype=np.uint8), index=i)
                 for i in range(25)]
        cases.append(blank)
        tex = smooth_texture(rng, 160, 120)
        vanishing = [make_frame(tex, index=0)] + blank[1:]
        cases.append(vanishing)

        for n in (1, 8, 10, 14):
            cfg = PipelineConfig(feature_size=n)
            for frames in cases:
                for _, sample in sequence_samples(frames, cfg):
                    assert sample.values.size == 12 * n
                    assert np.isfinite(sample.values).all()

    report(10, "every emitted sample vector has length exactly 12*N", check)
