import ast
import contextlib
import dataclasses
import io
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harpipe import cli, goodfeat, mlp, synth
from harpipe.config import PipelineConfig, load_config
from harpipe.flowdesc import DESCRIPTOR_DIM
from harpipe.mlp import ACTION_LABELS

from test_pipeline import constant_model, synth_frames, write_raw

FAST = ["--set", "epochs=5", "--set", "feature_size=4", "--set", "hidden_nodes=16"]


# a valid model file for layer sizes 2, 3, 4: the standardization mean and
# std, then per layer the weight rows and the bias row
SMALL_MODEL = """harmlp 1
2 3 4
1.0 1.0
0.0 0.5
1.0 2.0
0.1 -0.2
0.3 0.4
-0.5 0.6
0.0 0.1 -0.1
0.1 0.2 0.3
-0.1 -0.2 -0.3
0.5 0.0 -0.5
1.0 -1.0 0.25
0.0 0.0 0.0 0.0
"""


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    rc = cli.main(["synth", str(out), "--train-per-class", "2",
                   "--test-per-class", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def tiny_model(tiny_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    rc = cli.main(["train", str(tiny_corpus / "train"), str(path)] + FAST)
    assert rc == 0
    return path


class TestFormatReport:
    # published-accuracy-style fixture: 480 sequences, 95.0% overall
    FIXTURE = np.array([
        [112, 7, 0, 1],
        [9, 110, 0, 1],
        [1, 0, 113, 6],
        [2, 0, 7, 111],
    ])

    def test_fixture_overall_accuracy(self):
        # trace/total = (112+110+113+111)/480 = 92.9% to the printed decimal
        report = cli.format_report(self.FIXTURE)
        assert f"{'Overall':<10}{100 * 446 / 480:>9.1f}%" in report
        assert "csv,overall,,,,,92.9" in report

    def test_fixture_per_class_rates(self):
        report = cli.format_report(self.FIXTURE)
        assert f"{'Boxing':<10}{100 * 112 / 120:>9.1f}%" in report
        assert f"{'Running':<10}{100 * 113 / 120:>9.1f}%" in report

    def test_matrix_rows_in_fixed_order(self):
        lines = cli.format_report(self.FIXTURE).splitlines()
        names = [l.split()[0] for l in lines[2:6]]
        assert names == ["Boxing", "Clapping", "Running", "Walking"]

    def test_perfect_classifier(self):
        report = cli.format_report(np.eye(4, dtype=int) * 10)
        assert report.count("100.0%") == 5  # four classes + overall

    def test_constant_classifier(self):
        matrix = np.zeros((4, 4), dtype=int)
        matrix[:, 2] = 10
        report = cli.format_report(matrix)
        assert f"{'Running':<10}{100.0:>9.1f}%" in report
        assert f"{'Overall':<10}{25.0:>9.1f}%" in report
        assert f"{'Boxing':<10}{0.0:>9.1f}%" in report


class TestExitCodes:
    def test_usage_error_on_bad_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_usage_error_on_bad_set(self, tiny_corpus, capsys):
        rc = cli.main(["train", str(tiny_corpus / "train"), "m.txt",
                       "--set", "epochs"])
        assert rc == 1

    def test_usage_error_on_unknown_key(self, tiny_corpus):
        rc = cli.main(["train", str(tiny_corpus / "train"), "m.txt",
                       "--set", "bogus=1"])
        assert rc == 1

    @staticmethod
    def assert_usage_error(setting, capsys):
        rc = cli.main(["classify", "no-such-sequence", "no-such-model.txt",
                       "--set", setting])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ")
        assert setting.split("=")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting", [
        "track_half_window=0", "track_half_window=-1",
        "track_max_iterations=0", "pyramid_levels=0",
        "jacobian_probe_offset=0", "jacobian_probe_offset=-2",
        "jacobian_probe_offset=inf",
        "track_convergence_eps=0", "track_residual_max=0",
        "track_residual_max=nan",
    ])
    def test_usage_error_on_bad_tracker_setting(self, setting, capsys):
        self.assert_usage_error(setting, capsys)

    @pytest.mark.parametrize("setting", [
        "gmm_components=0", "gmm_components=-3",
        "gmm_alpha=0", "gmm_alpha=1.5", "gmm_alpha=nan",
        "gmm_threshold=0", "gmm_threshold=-0.5", "gmm_threshold=1.01",
        "gmm_threshold=nan",
        "gmm_match_radius=0", "gmm_match_radius=nan", "gmm_match_radius=inf",
        "gmm_initial_variance=0", "gmm_initial_variance=-1",
        "gmm_initial_variance=inf",
        "gmm_variance_floor=0", "gmm_variance_floor=nan", "gmm_variance_floor=inf",
    ])
    def test_usage_error_on_bad_gmm_setting(self, setting, capsys):
        self.assert_usage_error(setting, capsys)

    @pytest.mark.parametrize("setting", [
        "hidden_nodes=0", "hidden_nodes=-4", "epochs=-1",
        "activation_a=0", "activation_a=nan", "activation_a=inf",
        "activation_beta=0", "activation_beta=-1", "activation_beta=nan",
        "activation_beta=inf",
        "rprop_eta_minus=0", "rprop_eta_minus=1", "rprop_eta_minus=nan",
        "rprop_eta_plus=1", "rprop_eta_plus=0.5", "rprop_eta_plus=nan",
        "rprop_step_min=-1", "rprop_step_min=0", "rprop_step_min=0.5",
        "rprop_step_min=nan", "rprop_step_init=0", "rprop_step_init=100",
        "rprop_step_init=nan", "rprop_step_max=0.01", "rprop_step_max=nan",
    ])
    def test_usage_error_on_bad_mlp_setting(self, setting, capsys):
        self.assert_usage_error(setting, capsys)

    @pytest.mark.parametrize("setting", [
        "quality_rel=0", "quality_rel=2", "quality_rel=-0.1", "quality_rel=nan",
        "tensor_half_window=0", "tensor_half_window=-1",
        "window_stride=-1",
        "min_distance=-1", "min_distance=nan",
        "seed=-1",
        "working_resolution=2x2", "working_resolution=0x0",
        "working_resolution=160x2", "working_resolution=-4x4",
    ])
    def test_usage_error_on_bad_extraction_setting(self, setting, capsys):
        self.assert_usage_error(setting, capsys)

    @pytest.mark.parametrize("command,settings,named", [
        # sizes past the config's bounds, below which numpy can shape every
        # array built from them, are rejected before anything runs
        ("train", ["feature_size=1099511627776"], "feature_size"),
        ("train", ["hidden_nodes=1099511627776"], "hidden_nodes"),
        ("dump", ["gmm_components=1099511627776"], "gmm_components"),
        ("train", ["track_half_window=1099511627776"], "track_half_window"),
        ("train", ["feature_size=100000000000000000000"], "feature_size"),
        ("sweep", ["--values", "1", "1099511627776"], "feature_size"),
        # sizes whose first large allocation, of 2**40 bytes or more, fails
        # at once: the resized frame, and the background model at 1024x1024
        ("dump", ["working_resolution=999999x999999"], "Unable to allocate"),
        ("dump", ["gmm_components=1048575", "working_resolution=1024x1024"],
         "Unable to allocate"),
    ], ids=["feature_size", "hidden_nodes", "gmm_components", "track_half_window",
            "feature_size-1e20", "sweep", "working_resolution", "gmm-at-1024x1024"])
    def test_usage_error_on_size_beyond_memory(self, command, settings, named,
                                               tiny_corpus, tmp_path, capsys):
        seq = next((tiny_corpus / "test" / "boxing").iterdir())
        if command == "sweep":
            argv = ["sweep", str(tiny_corpus / "train"), str(tiny_corpus / "test"),
                    *settings]
        else:
            argv = {"train": ["train", str(tiny_corpus / "train"),
                              str(tmp_path / "model.txt")],
                    "dump": ["dump", str(seq), "--dump-masks",
                             str(tmp_path / "masks")]}[command]
            argv += [a for setting in settings for a in ("--set", setting)]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        [line] = captured.err.splitlines()
        assert line.startswith("usage error: ") and named in line
        # nothing is written
        assert not (tmp_path / "model.txt").exists()
        assert not any((tmp_path / "masks").glob("*"))

    @pytest.mark.parametrize("command,setting", [
        ("dump", "tensor_half_window=60"), ("train", "track_half_window=60")])
    def test_usage_error_on_window_beyond_frame(self, command, setting, tiny_corpus,
                                                tmp_path, capsys):
        # at 160x120 a 121-pixel window would find no corner, or lose every
        # track, and so zero every sample
        seq = next((tiny_corpus / "test" / "boxing").iterdir())
        out = tmp_path / "out"
        argv = {"dump": ["dump", str(seq), "--dump-features", str(out)],
                "train": ["train", str(tiny_corpus / "train"), str(out)]}[command]
        rc = cli.main(argv + ["--set", setting])
        captured = capsys.readouterr()
        assert rc == 1
        [line] = captured.err.splitlines()
        key = setting.split("=")[0]
        assert line == (f"usage error: {key} must be < 60, so that its window "
                        "fits the working resolution")
        assert not out.exists()

    def test_usage_error_on_negative_synth_seed(self, tmp_path, capsys):
        rc = cli.main(["synth", str(tmp_path / "corpus"), "--set", "seed=-1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and "seed" in err
        assert not (tmp_path / "corpus").exists()
        # the seed is a config setting like any other, with no flag of its own
        assert cli.main(["synth", str(tmp_path / "corpus"), "--seed", "1"]) == 1
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("command", [
        "train", "classify", "evaluate", "synth", "sweep", "dump"])
    @pytest.mark.parametrize("setting", ["seed=one", "seed"])
    def test_usage_error_on_malformed_seed(self, command, setting, tiny_corpus,
                                           tiny_model, tmp_path, tmp_path_factory,
                                           capsys):
        # every command takes --config and --set from one parent parser and
        # reads the one config main validates, before any work
        config = tmp_path_factory.mktemp("config") / "pipeline.cfg"
        config.write_text(setting.replace("=", " = ") + "\n")
        seq = next((tiny_corpus / "test" / "boxing").iterdir())
        out = tmp_path / "out"
        argv = {"train": ["train", str(tiny_corpus / "train"), str(out)],
                "classify": ["classify", str(seq), str(tiny_model)],
                "evaluate": ["evaluate", str(tiny_corpus / "test"), str(tiny_model)],
                "synth": ["synth", str(out)],
                "sweep": ["sweep", str(tiny_corpus / "train"),
                          str(tiny_corpus / "test"), "--values", "1", "4"],
                "dump": ["dump", str(seq), "--dump-masks", str(out)]}[command]
        for source, expected in (
            (["--set", setting], "--set expects key=value, got 'seed'"),
            (["--config", str(config)], f"{config}:1: expected 'key = value'"),
        ):
            if setting == "seed=one":
                expected = "seed: expected an integer, got 'one'"
            rc = cli.main(argv + source)
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err == f"usage error: {expected}\n"
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--train-per-class", "--test-per-class"])
    def test_usage_error_on_negative_synth_count(self, flag, tmp_path, capsys):
        rc = cli.main(["synth", str(tmp_path / "corpus"), flag, "-1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and flag in err
        assert not (tmp_path / "corpus").exists()
        # no sequences at all is still a valid request
        assert cli.main(["synth", str(tmp_path / "empty"), "--train-per-class",
                         "0", "--test-per-class", "0"]) == 0

    @pytest.mark.parametrize("output", [
        "train", "train-into-directory", "synth", "--dump-masks",
        "--dump-features", "--dump-flow"])
    def test_usage_error_on_unwritable_output(self, output, tiny_corpus,
                                              tmp_path, capsys):
        # a regular file where the output needs a directory, a model file in
        # a directory that does not exist, or a directory as the model file
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        seq = next((tiny_corpus / "test" / "boxing").iterdir())
        if output.startswith("train"):
            if output == "train":
                path = tmp_path / "missing" / "model.txt"
            else:
                path = tmp_path / "model_dir"
                path.mkdir()
            argv = ["train", str(tiny_corpus / "train"), str(path)] + FAST
        elif output == "synth":
            path = blocker / "corpus"
            argv = ["synth", str(path)]
        else:
            path = blocker
            argv = ["dump", str(seq), output, str(path)]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err and "extracted" not in err
        [line] = err.splitlines()
        assert line.startswith("usage error: ") and str(path) in line

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_data_error_on_feature_size_mismatch(self, command, tiny_corpus,
                                                 tiny_model, capsys):
        # tiny_model takes 4 x 12 = 48 inputs
        target = (next((tiny_corpus / "test" / "walking").iterdir())
                  if command == "classify" else tiny_corpus / "test")
        rc = cli.main([command, str(target), str(tiny_model)] + FAST
                      + ["--set", "feature_size=10"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert err[-1].startswith("data error: ")
        assert "120" in err[-1] and "48" in err[-1] and str(tiny_model) in err[-1]
        # the mismatch is reported before any sequence is extracted
        assert not any("extracted" in line for line in err)

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_data_error_on_wrong_output_layer(self, command, tiny_corpus,
                                              tmp_path, capsys):
        model = tmp_path / "five_classes.txt"
        mlp.save_model(mlp.init_model([48, 8, 5], seed=0), str(model))
        target = (next((tiny_corpus / "test" / "walking").iterdir())
                  if command == "classify" else tiny_corpus / "test")
        rc = cli.main([command, str(target), str(model)] + FAST)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("data error: ")
        assert "5 nodes" in captured.err and "Traceback" not in captured.err
        assert str(model) in captured.err

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_data_error_on_layer_size_below_one(self, command, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(SMALL_MODEL.replace("2 3 4\n", "2 3 -1\n", 1))
        rc = cli.main([command, "no-such-target", str(model)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert ">= 1" in err[0]

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    @pytest.mark.parametrize("line,value,message", [
        (2, "nan 1.0", "a and beta"), (2, "1.0 0.0", "a and beta"),
        (2, "-1.0 1.0", "a and beta"), (2, "1.0 inf", "a and beta"),
        (4, " ".join(["1.0"] * 47 + ["0.0"]), "std"),
    ], ids=["a-nan", "beta-zero", "a-negative", "beta-inf", "std-zero"])
    def test_data_error_on_unusable_model_parameters(
            self, command, line, value, message, tiny_corpus, tmp_path, capsys):
        # the model takes FAST's 48 inputs, so only the edited line is wrong
        model = tmp_path / "model.txt"
        mlp.save_model(mlp.init_model([48, 8, 4], seed=0), str(model))
        lines = model.read_text().splitlines()
        lines[line] = value
        model.write_text("\n".join(lines) + "\n")
        target = (next((tiny_corpus / "test" / "walking").iterdir())
                  if command == "classify" else tiny_corpus / "test")
        rc = cli.main([command, str(target), str(model)] + FAST)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        [err] = captured.err.splitlines()
        assert err.startswith("data error: ") and message in err

    @pytest.mark.parametrize("source", ["--set", "--config"])
    @pytest.mark.parametrize("setting,expected", [
        ("feature_size=1e3", "feature_size: expected an integer, got '1e3'"),
        ("gmm_alpha=half", "gmm_alpha: expected a number, got 'half'"),
    ])
    def test_unparsable_value_names_its_key(self, source, setting, expected,
                                            tmp_path, capsys):
        if source == "--config":
            (tmp_path / "pipeline.cfg").write_text(setting.replace("=", " = ") + "\n")
            setting = str(tmp_path / "pipeline.cfg")
        rc = cli.main(["classify", "no-such-sequence", "no-such-model.txt",
                       source, setting])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {expected}\n"

    def test_data_error_on_class_without_samples(self, tiny_corpus, tmp_path,
                                                 capsys):
        train_dir = tmp_path / "train"
        shutil.copytree(tiny_corpus / "train", train_dir)
        for seq in (train_dir / "walking").iterdir():
            shutil.rmtree(seq)
        rc = cli.main(["train", str(train_dir), str(tmp_path / "m.txt")] + FAST)
        err = capsys.readouterr().err.splitlines()[-1]
        assert rc == 2
        assert err.startswith("data error: ") and "walking" in err
        assert not (tmp_path / "m.txt").exists()

    @staticmethod
    def cut_sequences(seqs, keep=10):
        # fewer frames than one 25-frame window
        for seq in seqs:
            for frame in sorted(seq.iterdir())[keep:]:
                frame.unlink()

    def test_data_error_on_class_with_only_short_sequences(
            self, tiny_corpus, tmp_path, capsys):
        # boxing's only sequence yields no window, the other classes do
        train_dir = tmp_path / "train"
        shutil.copytree(tiny_corpus / "train", train_dir)
        only, *others = sorted((train_dir / "boxing").iterdir())
        for seq in others:
            shutil.rmtree(seq)
        self.cut_sequences([only])
        rc = cli.main(["train", str(train_dir), str(tmp_path / "m.txt")] + FAST)
        assert rc == 2
        assert (capsys.readouterr().err.splitlines()[-1]
                == "data error: no training samples for boxing")
        assert not (tmp_path / "m.txt").exists()

    def test_data_error_when_no_sequence_fills_a_window(self, tiny_corpus,
                                                        tmp_path, capsys):
        train_dir = tmp_path / "train"
        shutil.copytree(tiny_corpus / "train", train_dir)
        self.cut_sequences(train_dir.glob("*/*"))
        rc = cli.main(["train", str(train_dir), str(tmp_path / "m.txt")] + FAST)
        assert rc == 2
        assert (capsys.readouterr().err.splitlines()[-1]
                == f"data error: no samples extracted from {str(train_dir)!r}")
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_data_error_on_short_test_sequence(self, command, tiny_corpus,
                                               tiny_model, tmp_path, capsys):
        test_dir = tmp_path / "test"
        shutil.copytree(tiny_corpus / "test", test_dir)
        short = next((test_dir / "running").iterdir())
        for frame in sorted(short.iterdir())[24:]:
            frame.unlink()
        argv = (["evaluate", str(test_dir), str(tiny_model)]
                if command == "evaluate" else
                ["sweep", str(tiny_corpus / "train"), str(test_dir),
                 "--values", "2", "4"])
        rc = cli.main(argv + FAST)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.splitlines()[-1] == (f"data error: {short}: "
                                        "sequence shorter than one window")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["classify", "dump", "evaluate"])
    def test_data_error_on_corrupt_frame(self, command, tiny_corpus,
                                         tiny_model, tmp_path, capsys):
        # frame 40 is cut short, so the error comes after 40 frames have been
        # read, and by dump written
        test_dir = tmp_path / "test"
        shutil.copytree(tiny_corpus / "test", test_dir)
        seq = next((test_dir / "boxing").iterdir())
        bad = sorted(seq.iterdir())[40]
        bad.write_bytes(bad.read_bytes()[:100])
        masks = tmp_path / "masks"
        argv = {"classify": ["classify", str(seq), str(tiny_model)],
                "dump": ["dump", str(seq), "--dump-masks", str(masks)],
                "evaluate": ["evaluate", str(test_dir), str(tiny_model)]}
        rc = cli.main(argv[command] + FAST)
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert rc == 2
        assert "Traceback" not in captured.err
        assert [line for line in err if line.startswith("data error: ")] == err[-1:]
        # the bad file is named
        assert err[-1].startswith(f"data error: {seq}: {bad.name}: ")
        if command == "classify":
            assert captured.out == ""
        if command == "dump":
            assert len(list(masks.iterdir())) == 40

    def test_usage_error_on_empty_model_path(self, tiny_corpus, capsys):
        rc = cli.main(["train", str(tiny_corpus / "train"), ""] + FAST)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err and "extracted" not in err
        [line] = err.splitlines()
        assert line.startswith("usage error: ")

    @pytest.mark.parametrize("command,settings", [
        ("train", ["rprop_eta_plus=1e300", "rprop_step_max=1e308"]),
        ("train", ["activation_a=1e308", "activation_beta=1e-300"]),
        ("train", ["activation_beta=1e300"]),
        ("sweep", ["activation_beta=1e300"]),
    ], ids=["rprop-steps", "activation-slope", "beta-squared", "sweep"])
    def test_usage_error_on_diverged_training(self, command, settings,
                                              tiny_corpus, tmp_path, capsys):
        # each setting is within its bounds, yet at the default sizes the
        # trained parameters leave the float range
        out = tmp_path / "out"
        out.mkdir()
        argv = ([command, str(tiny_corpus / "train"), str(out / "model.txt")]
                if command == "train" else
                [command, str(tiny_corpus / "train"), str(tiny_corpus / "test"),
                 "--values", "1", "4"])
        for setting in settings:
            argv += ["--set", setting]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "" and "Traceback" not in captured.err
        [line] = [l for l in captured.err.splitlines() if "extracted" not in l]
        assert line.startswith("usage error: training diverged")
        assert not any(out.iterdir())

    def test_sweep_rejects_feature_size_below_one(self, tiny_corpus):
        rc = cli.main(["sweep", str(tiny_corpus / "train"),
                       str(tiny_corpus / "test"), "--values", "0", "4"])
        assert rc == 1

    def test_data_error_on_missing_class(self, tmp_path):
        for label in ACTION_LABELS[:-1]:
            (tmp_path / label).mkdir()
        rc = cli.main(["train", str(tmp_path), str(tmp_path / "m.txt")] + FAST)
        assert rc == 2

    def test_data_error_on_missing_model(self, tiny_corpus):
        seq = next((tiny_corpus / "test" / "walking").iterdir())
        rc = cli.main(["classify", str(seq), "/nonexistent/model.txt"])
        assert rc == 2

    def test_sweep_needs_two_values(self, tiny_corpus):
        rc = cli.main(["sweep", str(tiny_corpus / "train"),
                       str(tiny_corpus / "test"), "--values", "8"])
        assert rc == 1


class TestTrain:
    def test_report_counts(self, tiny_corpus, tiny_model, capsys):
        rc = cli.main(["train", str(tiny_corpus / "train"),
                       str(tiny_model)] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        # 2 sequences x 3 windows per class
        for label in ACTION_LABELS:
            assert f"samples {label}: 6" in out
        assert "samples total: 24" in out
        assert "final loss:" in out

    def test_default_path_matches_config_path(self, tmp_path):
        # perfbench's worker trains through mlp's defaults, the CLI through
        # the config; at the default config both write the same model file
        cfg = PipelineConfig()
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(40, cfg.feature_size * DESCRIPTOR_DIM))
        labels = np.arange(40) % len(ACTION_LABELS)
        model, _ = cli.fit(inputs, labels, cfg)
        sizes = [inputs.shape[1], cfg.hidden_nodes, len(ACTION_LABELS)]
        bench = mlp.init_model(sizes, seed=cfg.seed)
        mlp.train(bench, inputs, labels, epochs=cfg.epochs,
                  rprop=mlp.init_rprop(bench))
        mlp.save_model(model, str(tmp_path / "cli.txt"))
        mlp.save_model(bench, str(tmp_path / "bench.txt"))
        assert ((tmp_path / "cli.txt").read_bytes()
                == (tmp_path / "bench.txt").read_bytes())
        default, configured = mlp.init_rprop(bench), mlp.init_rprop(bench, cfg)
        assert default.cfg == configured.cfg
        assert default.step.tobytes() == configured.step.tobytes()
        assert default.prev_grad.tobytes() == configured.prev_grad.tobytes()


class TestClassify:
    def test_one_line_per_window(self, tiny_corpus, tiny_model, capsys):
        seq = next((tiny_corpus / "test" / "walking").iterdir())
        rc = cli.main(["classify", str(seq), str(tiny_model)] + FAST)
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # 75 frames / 25-frame windows
        for expected_start, line in zip(["0", "25", "50"], lines):
            parts = line.split()
            assert parts[0] == expected_start
            assert parts[1] in ACTION_LABELS
            assert len(parts) == 6

    def test_constant_model_window_count(self, tiny_corpus, tmp_path, capsys):
        # output layer biased toward running whatever the input
        biases = np.full(4, -1.0)
        biases[2] = 1.0
        model = tmp_path / "constant.txt"
        mlp.save_model(mlp.MlpModel([48, 4], [np.zeros((4, 48))], [biases], 1.0,
                                    1.0, np.zeros(48), np.ones(48)), str(model))
        seq = next((tiny_corpus / "test" / "boxing").iterdir())
        rc = cli.main(["classify", str(seq), str(model)] + FAST)
        assert rc == 0
        lines = [l.split() for l in capsys.readouterr().out.splitlines()]
        assert [parts[0] for parts in lines] == ["0", "25", "50"]
        assert all(parts[1] == "running" for parts in lines)

    @pytest.mark.parametrize("command", ["classify", "dump"])
    def test_data_error_on_raw_frame_beyond_memory(self, command, tmp_path,
                                                   capsys):
        # 999999999 x 999999999 x 3 bytes is beyond any address space, so
        # the frame buffer's allocation fails at once; /dev/null is not a
        # regular file, so no size check stops the loader before it
        model = tmp_path / "model.txt"
        constant_model(model)
        argv = [command, os.devnull] + ([str(model)] if command == "classify" else [])
        rc = cli.main(argv + ["--raw", "999999999x999999999:rgb"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"data error: {os.devnull}: no memory for a "
                       f"{999999999 ** 2 * 3}-byte frame\n")

    def test_too_short_sequence(self, tiny_corpus, tiny_model, tmp_path, capsys):
        # a PGM directory of 24 frames holds no full 25-frame window
        src = next((tiny_corpus / "test" / "walking").iterdir())
        short = tmp_path / "short"
        short.mkdir()
        for name in sorted(f.name for f in src.iterdir())[:24]:
            (short / name).write_bytes((src / name).read_bytes())
        rc = cli.main(["classify", str(short), str(tiny_model)] + FAST)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"data error: {short}: sequence has 24 frames, "
                                "needs >= 25\n")


class TestWindowScores:
    def test_matches_per_window_predict(self):
        rng = np.random.default_rng(3)
        model = mlp.init_model([12, 7, 4], seed=3)
        values = rng.normal(size=(9, 12))
        scores = cli.window_scores(model, values)
        assert scores.shape == (9, 4)
        for row, v in zip(scores, values):
            cls, out = mlp.predict(model, v)
            assert row.tobytes() == out.tobytes()
            assert row.argmax() == cls

    def test_tie_goes_to_lowest_class(self):
        # zero weights: the outputs are the biases through the activation,
        # whatever the input, so classes 1 and 2 tie
        model = mlp.MlpModel([6, 4], [np.zeros((4, 6))], [np.array([0.1, 0.5, 0.5, 0.2])],
                             1.0, 1.0, np.zeros(6), np.ones(6))
        [row] = cli.window_scores(model, np.ones((1, 6)))
        assert row[1] == row[2]
        assert row.argmax() == mlp.predict(model, np.ones(6))[0] == 1


class TestScoreDataset:
    def test_vote_tie_goes_to_earliest_leader(self):
        # sequence 0 ties classes 2 and 1 at two windows each, and its
        # first window says 2; sequence 1 has one window
        classes = np.array([2, 1, 1, 2, 3])
        labels = np.array([0, 0, 0, 0, 3])
        seq_ids = np.array([0, 0, 0, 0, 1])
        matrix = cli.score_dataset(classes, labels, seq_ids, ["a", "b"])
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 2] = expected[3, 3] = 1
        assert (matrix == expected).all()

    def test_sequence_without_window(self):
        with pytest.raises(cli.DataError,
                           match="^b: sequence shorter than one window$"):
            cli.score_dataset(np.array([0]), np.array([0]), np.array([0]),
                              ["a", "b"])


SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def private_name(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_harpipe_names(source: str) -> list[str]:
    """The ``_``-prefixed names, dunders aside, that a script takes from
    harpipe: imported from a harpipe module, or read as an attribute of a
    name it imported from one."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "harpipe":
            imported |= {a.asname or a.name for a in node.names}
            found += [f"{node.module}.{a.name}" for a in node.names if private_name(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private_name(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in imported):
            found.append(f"{node.value.id}.{node.attr}")
    return found


class TestScripts:
    def test_finds_private_names(self):
        source = ("from harpipe import cli, mlp\nfrom harpipe.cli import _log\n"
                  "cli._train_model; mlp._choose\n"
                  "cli.fit; cli.__file__; other._name\n")
        assert private_harpipe_names(source) == [
            "harpipe.cli._log", "cli._train_model", "mlp._choose"]

    @pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
    def test_public_names_only(self, script):
        assert private_harpipe_names((SCRIPTS / script).read_text()) == []


class TestEvaluate:
    def test_report_row_sums(self, tiny_corpus, tiny_model, capsys):
        rc = cli.main(["evaluate", str(tiny_corpus / "test"),
                       str(tiny_model)] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        for label in ACTION_LABELS:
            row = next(l for l in out.splitlines()
                       if l.startswith(f"csv,{label.capitalize()},"))
            counts = [int(v) for v in row.split(",")[2:6]]
            assert sum(counts) == 1  # one test sequence per class


class TestSweep:
    def test_columns_match_evaluate(self, tiny_corpus, tmp_path, capsys):
        # the sweep's column for N equals evaluate's per-class and overall
        # rates for a model trained with feature_size=N
        sizes = ["1", "2", "8"]  # three different columns under FAST
        rc = cli.main(["sweep", str(tiny_corpus / "train"),
                       str(tiny_corpus / "test"), "--values"] + sizes + FAST)
        assert rc == 0
        names = [label.capitalize() for label in ACTION_LABELS] + ["Overall"]
        columns = {}
        for line in capsys.readouterr().out.splitlines():
            if line.split()[0] in names:
                columns[line.split()[0]] = line.split()[1:]
        for col, n in enumerate(sizes):
            model = tmp_path / f"model_{n}.txt"
            settings = FAST + ["--set", f"feature_size={n}"]
            assert cli.main(["train", str(tiny_corpus / "train"),
                             str(model)] + settings) == 0
            capsys.readouterr()
            assert cli.main(["evaluate", str(tiny_corpus / "test"),
                             str(model)] + settings) == 0
            # csv,<class>,<counts...>,<rate> rows, then csv,overall,,,,,<rate>
            rates = [line.split(",")[-1]
                     for line in capsys.readouterr().out.splitlines()[-5:]]
            assert rates == [columns[name][col] for name in names]


class TestDump:
    def test_dump_outputs(self, tiny_corpus, tmp_path):
        seq = next((tiny_corpus / "test" / "boxing").iterdir())
        rc = cli.main([
            "dump", str(seq),
            "--dump-masks", str(tmp_path / "masks"),
            "--dump-features", str(tmp_path / "features"),
            "--dump-flow", str(tmp_path / "flow"),
        ] + FAST)
        assert rc == 0
        header = b"P5\n160 120\n255\n"
        masks = []
        for path in sorted((tmp_path / "masks").iterdir()):
            data = path.read_bytes()
            assert data.startswith(header)
            assert len(data) == len(header) + 160 * 120
            masks.append(np.frombuffer(data[len(header):], np.uint8))
        assert len(masks) == 75
        masks = np.stack(masks)
        assert np.isin(masks, (0, 255)).all()
        assert not masks[0].any()  # the first frame seeds the model
        assert (masks[1:] == 255).any()
        assert len(list((tmp_path / "features").iterdir())) == 75
        flow_files = sorted((tmp_path / "flow").iterdir())
        assert flow_files
        line = flow_files[0].read_text().splitlines()[0].split()
        assert len(line) == 7  # index x y u v status residual

    def test_one_pass_matches_single_stage_runs(self, tiny_corpus, tmp_path):
        seq = next((tiny_corpus / "test" / "running").iterdir())

        def dump(out, stages):
            argv = ["dump", str(seq), "--set", "flow_step=2"]
            for stage in stages:
                argv += [f"--dump-{stage}", str(out / stage)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            return {stage: {p.name: p.read_bytes() for p in (out / stage).iterdir()}
                    for stage in stages}

        together = dump(tmp_path / "together", DUMP_STAGES)
        # flow_step=2 over 75 frames: frames 0, 2, ..., 72 start a flow step
        assert len(together["flow"]) == 37
        for stage in DUMP_STAGES:
            assert dump(tmp_path / stage, [stage]) == {stage: together[stage]}

    @pytest.mark.parametrize("stages,calls", [
        (["features", "flow"], 75),  # the flow stage takes the features'
        (["flow"], 24),  # frames 0, 3, ..., 69 start a flow step
    ])
    def test_detector_runs_once_per_frame(self, stages, calls, tiny_corpus,
                                          tmp_path, monkeypatch):
        seq = next((tiny_corpus / "test" / "walking").iterdir())
        count = 0
        detect = goodfeat.detect_good_features

        def spy(*args, **kwargs):
            nonlocal count
            count += 1
            return detect(*args, **kwargs)

        monkeypatch.setattr(goodfeat, "detect_good_features", spy)
        argv = ["dump", str(seq)]
        for stage in stages:
            argv += [f"--dump-{stage}", str(tmp_path / stage)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert count == calls

    @pytest.mark.parametrize("stage,setting", [
        ("features", "min_distance=1e300"),
        ("flow", "track_convergence_eps=1e300"),
    ])
    def test_setting_whose_square_overflows(self, stage, setting, tiny_corpus,
                                            tmp_path):
        # the square is inf: every later corner lies within min_distance of
        # the first, and every track converges on its first iteration
        seq = next((tiny_corpus / "test" / "clapping").iterdir())
        out = tmp_path / stage
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["dump", str(seq), f"--dump-{stage}", str(out),
                             "--set", setting]) == 0
        files = [p.read_text().splitlines() for p in sorted(out.iterdir())]
        if stage == "features":
            assert len(files) == 75
            assert all(len(lines) <= 1 for lines in files)
        else:
            assert len(files) == 24  # frames 0, 3, ..., 69 start a flow step
            assert all(len(line.split()) == 7 for lines in files for line in lines)


# one harpipe command in a fresh process; prints its exit code and the
# process's peak RSS in MB, read from VmHWM as perfbench/worker.py reads it
PEAK_RSS = """\
import contextlib, io, sys
from harpipe import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(rc, int(peak) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
class TestBoundedMemory:
    """classify and dump hold at most one window group of a raw stream's
    frames, so their peak RSS does not grow with the stream's length."""

    @pytest.fixture(scope="class")
    def streams(self, tmp_path_factory):
        # the long stream repeats the short one, so that only the length
        # differs between the two runs
        out = tmp_path_factory.mktemp("streams")
        short, long = out / "short.raw", out / "long.raw"
        write_raw(short, synth_frames("boxing") + synth_frames("walking"))
        long.write_bytes(short.read_bytes() * 8)
        return short, long

    @staticmethod
    def peak_rss_mb(argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rc, peak = proc.stdout.split()
        assert rc == "0", proc.stderr
        return float(peak)

    @pytest.mark.parametrize("command", ["classify", "dump"])
    def test_peak_rss_independent_of_length(self, command, streams, tmp_path):
        model = tmp_path / "constant.txt"
        constant_model(model)
        peaks = []
        for stream in streams:  # 150 frames, then 1,200
            argv = (["classify", str(stream), str(model)] if command == "classify"
                    else ["dump", str(stream), "--dump-masks",
                          str(tmp_path / stream.stem)])
            peaks.append(self.peak_rss_mb(
                argv + ["--raw", f"{synth.WIDTH}x{synth.HEIGHT}"]))
        assert peaks[1] - peaks[0] <= 2.0, peaks

DUMP_STAGES = ("masks", "features", "flow")

# each detector, tracker and GMM key with a valid value other than its
# default, and the dump outputs that value must change: a detector key moves
# the features and so the flow, a tracker key the flow only, a GMM key the
# masks only
CONFIG_PATH = {
    "quality_rel=0.5": {"features", "flow"},
    "min_distance=20": {"features", "flow"},
    "tensor_half_window=4": {"features", "flow"},
    "pyramid_levels=1": {"flow"},
    "track_half_window=3": {"flow"},
    "track_max_iterations=1": {"flow"},
    "track_convergence_eps=1.0": {"flow"},
    "track_residual_max=1.0": {"flow"},
    "gmm_components=1": {"masks"},
    "gmm_alpha=0.5": {"masks"},
    "gmm_threshold=0.3": {"masks"},
    "gmm_match_radius=0.5": {"masks"},
    "gmm_initial_variance=4.0": {"masks"},
    "gmm_variance_floor=100.0": {"masks"},
}


class TestConfigPath:
    """Each key reaches its component: ``dump`` on a short raw stream with
    one key changed writes different files for that key's stages and the
    same files for the others."""

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "walking.raw"
        write_raw(path, synth_frames("walking", count=10))
        return path

    @staticmethod
    def dump(stream, out, *settings):
        argv = ["dump", str(stream), "--raw", f"{synth.WIDTH}x{synth.HEIGHT}"]
        for stage in DUMP_STAGES:
            argv += [f"--dump-{stage}", str(out / stage)]
        for setting in settings:
            argv += ["--set", setting]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return {stage: {p.name: p.read_bytes() for p in (out / stage).iterdir()}
                for stage in DUMP_STAGES}

    @pytest.fixture(scope="class")
    def default_dump(self, stream, tmp_path_factory):
        return self.dump(stream, tmp_path_factory.mktemp("default"))

    def test_every_component_key_listed(self):
        keys = {f.name for f in dataclasses.fields(PipelineConfig)
                if f.name.startswith(("track_", "gmm_"))}
        keys |= {"quality_rel", "min_distance", "tensor_half_window",
                 "pyramid_levels"}
        assert {setting.split("=")[0] for setting in CONFIG_PATH} == keys

    @pytest.mark.parametrize("setting", list(CONFIG_PATH))
    def test_key_changes_its_stages(self, setting, stream, default_dump,
                                    tmp_path):
        got = self.dump(stream, tmp_path, setting)
        changed = {stage for stage in DUMP_STAGES
                   if got[stage] != default_dump[stage]}
        assert changed == CONFIG_PATH[setting]


# tokens near the edges of what parses: sizes below 1, non-finite and
# out-of-range floats, digit strings too long for int(), near-numbers
TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "1e999", "-0", "1e3", "9" * 5000, "1_0",
                     "+7", "0x1", "\u0667", "3x3", "harmlp", "#", "="]),
    st.text(max_size=4),
)


@st.composite
def model_bytes(draw):
    """SMALL_MODEL with, maybe, a new layer sizes line, and a few tokens or
    lines replaced, dropped or repeated, most often in the header lines;
    then possibly cut short or followed by bytes that are not UTF-8."""
    lines = [ln.split() for ln in SMALL_MODEL.splitlines()]
    if draw(st.booleans()):
        # the input size still matches the standardization vectors
        lines[1] = ["2", *map(str, draw(st.lists(st.integers(-2, 5), max_size=3)))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.one_of(st.integers(0, 2), st.integers(0, len(lines) - 1)))
        op = draw(st.sampled_from(["set", "drop", "add", "drop_line", "copy_line"]))
        j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
        if op == "set" and lines[i]:
            lines[i][j] = draw(TOKENS)
        elif op == "drop" and lines[i]:
            del lines[i][j]
        elif op == "add":
            lines[i].insert(j, draw(TOKENS))
        elif op == "drop_line" and len(lines) > 1:
            del lines[i]
        elif op == "copy_line":
            lines.insert(i, list(lines[i]))
    data = "".join(" ".join(ln) + "\n" for ln in lines).encode()
    data = data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data
    return data + draw(st.sampled_from([b"", b"\xff", b"\x00\n", b"\xc3"]))


KEYS = st.one_of(
    st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)]),
    st.text(max_size=6),
)


@st.composite
def config_bytes(draw):
    """Config lines: known or arbitrary keys with edge-case values, comments,
    lines without '=', and bytes that are not UTF-8."""
    line = st.one_of(
        st.tuples(KEYS, st.sampled_from(["=", " = ", " =", "= "]),
                  TOKENS, st.sampled_from(["", " # note"])).map("".join),
        st.text(max_size=12),
    )
    text = "\n".join(draw(st.lists(line, max_size=6)))
    return text.encode() + draw(st.sampled_from([b"", b"\n", b"\xff"]))


def classify_stderr(*argv: str) -> tuple[int, list[str]]:
    """``harpipe classify`` exit code and stderr lines; a traceback would
    escape ``cli.main`` and fail the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["classify", "no-such-sequence", *argv])
    return rc, err.getvalue().splitlines()


@contextlib.contextmanager
def temp_file(data: bytes, name: str):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        with open(path, "wb") as fh:
            fh.write(data)
        yield path


class TestFuzz:
    """Mutated model and config files raise only ValueError or OSError, and
    the CLI reports each as a one-line error: a data error (2) for a model,
    a usage error (1) for a config."""

    @given(model_bytes())
    @settings(max_examples=300, deadline=None)
    def test_model_file(self, data):
        with temp_file(data, "model.txt") as path:
            try:
                mlp.load_model(path)
                malformed = False
            except ValueError:
                malformed = True
            rc, err = classify_stderr(path)
        # a model that loads fails next on the input size or the sequence
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("data error: ")
        if malformed:
            assert err[0].startswith(f"data error: malformed model file {path}: ")

    @given(config_bytes())
    @settings(max_examples=300, deadline=None)
    def test_config_file(self, data):
        with temp_file(data, "pipeline.cfg") as path:
            try:
                load_config(path)
                loads = True
            except (ValueError, OSError):
                loads = False
            rc, err = classify_stderr("no-such-model.txt", "--config", path)
        # a config that loads fails next on the missing model
        assert rc == (2 if loads else 1)
        assert len(err) == 1
        assert err[0].startswith("data error: " if loads else "usage error: ")
