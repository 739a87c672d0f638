import dataclasses
import os
import subprocess
import sys

import pytest

import harpipe
from harpipe.config import PipelineConfig, apply_settings, load_config


class TestDefaults:
    def test_paper_scale_defaults(self):
        cfg = PipelineConfig()
        assert cfg.working_resolution == (160, 120)
        assert cfg.flow_step == 3
        assert cfg.window_frames == 25
        assert cfg.feature_size == 10
        assert cfg.hidden_nodes == 200

    def test_stride_defaults_to_window_length(self):
        assert PipelineConfig().stride == 25
        assert PipelineConfig(window_stride=5).stride == 5

    def test_frozen(self):
        # the components read the validated object itself, so no field may
        # change after the checks ran
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.track_half_window = 0
        assert cfg.track_half_window == 7
        assert len(dataclasses.fields(cfg)) == 30

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(flow_step=0)
        with pytest.raises(ValueError):
            PipelineConfig(window_frames=3, flow_step=3)
        with pytest.raises(ValueError):
            PipelineConfig(feature_size=0)

    @pytest.mark.parametrize("key,largest,smallest_rejected", [
        ("working_resolution", (2**20 - 1, 3), (3, 2**20)),
        ("feature_size", 2**20 - 1, 2**20),
        ("hidden_nodes", 2**20 - 1, 2**20),
        ("gmm_components", 2**20 - 1, 2**20),
        ("track_half_window", 2**12 - 1, 2**12),
    ])
    def test_size_bounds(self, key, largest, smallest_rejected):
        # the bounds below which numpy can shape every array built from them;
        # the co-settings keep each window within the working resolution
        others = {"working_resolution": {"tensor_half_window": 1, "track_half_window": 1},
                  "track_half_window": {"working_resolution": (8191, 8191)}}.get(key, {})
        assert getattr(PipelineConfig(**{key: largest}, **others), key) == largest
        with pytest.raises(ValueError, match=f"^{key} .*must be >= . and < "):
            PipelineConfig(**{key: smallest_rejected}, **others)

    @pytest.mark.parametrize("key", ["tensor_half_window", "track_half_window"])
    @pytest.mark.parametrize("resolution,largest", [((160, 120), 59), ((40, 30), 14)])
    def test_window_fits_working_resolution(self, key, resolution, largest):
        cfg = PipelineConfig(**{key: largest, "working_resolution": resolution})
        assert getattr(cfg, key) == largest
        with pytest.raises(ValueError, match=f"^{key} must be < {largest + 1}, so that "
                                             "its window fits the working resolution$"):
            PipelineConfig(**{key: largest + 1, "working_resolution": resolution})


class TestApplySettings:
    def test_typed_parsing(self):
        cfg = apply_settings(PipelineConfig(), {
            "feature_size": "14",
            "gmm_alpha": "0.1",
            "working_resolution": "80x60",
        })
        assert cfg.feature_size == 14
        assert cfg.gmm_alpha == 0.1
        assert cfg.working_resolution == (80, 60)

    def test_unknown_key(self):
        # foreground_gating names a removed feature: it must not pass silently
        for key in ("learning_rate", "foreground_gating"):
            with pytest.raises(ValueError, match="unknown config key"):
                apply_settings(PipelineConfig(), {key: "0.1"})

    def test_bad_resolution(self):
        # the sides are ASCII digits only, as in a raw stream's geometry
        for raw in ("wide", "1_60x120", "+160x120", "160 x 120", "\u0661\u0666\u0660x120"):
            with pytest.raises(ValueError, match="working_resolution: expected WxH"):
                apply_settings(PipelineConfig(), {"working_resolution": raw})


class TestLoadConfig:
    def test_file_with_comments_and_overrides(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text(
            "# tuned for the synthetic corpus\n"
            "feature_size = 8\n"
            "epochs = 10   # short run\n"
            "\n"
            "seed = 3\n"
        )
        cfg = load_config(str(path), ["epochs=20"])
        assert cfg.feature_size == 8
        assert cfg.epochs == 20
        assert cfg.seed == 3

    def test_no_file_gives_defaults(self):
        assert load_config(None) == PipelineConfig()

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("feature_size 8\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(str(path))

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"seed = 3  # caf\xe9\n")
        with pytest.raises(ValueError) as e:
            load_config(str(path))
        assert str(e.value).startswith(f"{path}: ")
        assert "decode" in str(e.value)

    def test_malformed_set_item(self):
        with pytest.raises(ValueError, match="^--set expects key=value, got 'seed'$"):
            load_config(None, ["seed"])

    def test_utf8_whatever_the_locale(self, tmp_path):
        # an ASCII locale, with neither locale coercion nor UTF-8 mode
        path = tmp_path / "pipeline.cfg"
        path.write_text("seed = 3  # caf\u00e9\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(harpipe.__file__))
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        code = ("import sys; from harpipe.config import load_config; "
                "print(load_config(sys.argv[1]).seed)")
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3\n"
