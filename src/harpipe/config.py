"""Pipeline configuration: flat key=value files with command-line overrides."""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    """Every pipeline setting, checked on construction and frozen after.
    The detector, tracker and background model read theirs from this
    object, so each default is written here only."""

    working_resolution: tuple[int, int] = (160, 120)
    flow_step: int = 3
    window_frames: int = 25
    window_stride: int = 0  # 0 = non-overlapping (stride = window_frames)
    feature_size: int = 10
    hidden_nodes: int = 200
    seed: int = 0
    epochs: int = 50

    # good-feature detection
    quality_rel: float = 0.05
    min_distance: float = 7.0
    tensor_half_window: int = 2

    # tracker
    pyramid_levels: int = 3
    track_half_window: int = 7
    track_max_iterations: int = 20
    track_convergence_eps: float = 0.03
    track_residual_max: float = 12.0
    jacobian_probe_offset: float = 2.0

    # background model
    gmm_components: int = 3
    gmm_alpha: float = 0.05
    gmm_threshold: float = 0.7
    gmm_match_radius: float = 2.5
    gmm_initial_variance: float = 225.0
    gmm_variance_floor: float = 4.0

    # classifier activation / RPROP
    activation_a: float = 1.0
    activation_beta: float = 1.0
    rprop_eta_plus: float = 1.2
    rprop_eta_minus: float = 0.5
    rprop_step_init: float = 0.1
    rprop_step_min: float = 1e-6
    rprop_step_max: float = 50.0

    def __post_init__(self):
        if self.flow_step < 1:
            raise ValueError("flow_step must be >= 1")
        if self.window_frames < self.flow_step + 1:
            raise ValueError("window_frames must be >= flow_step + 1")
        # Below these bounds no array built from the sizes reaches numpy's
        # 2**63-byte limit; the largest hold gmm_components values per pixel,
        # or (2 * track_half_window + 2)**2 per tracked point.
        if not all(3 <= side < 2**20 for side in self.working_resolution):
            raise ValueError(f"working_resolution sides must be >= 3 and < {2**20}")
        for key, bound in (("feature_size", 2**20), ("hidden_nodes", 2**20),
                           ("gmm_components", 2**20), ("track_half_window", 2**12)):
            if not 1 <= getattr(self, key) < bound:
                raise ValueError(f"{key} must be >= 1 and < {bound}")
        for key in ("tensor_half_window", "pyramid_levels", "track_max_iterations"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        # written so that NaN fails too
        for key in ("window_stride", "seed", "epochs", "min_distance"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0")
        for key in ("track_convergence_eps", "track_residual_max"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0")
        # inf would zero every sample, train a NaN model or call every pixel
        # background
        for key in ("jacobian_probe_offset", "activation_a", "activation_beta",
                    "gmm_match_radius", "gmm_initial_variance", "gmm_variance_floor"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and > 0")
        for key in ("quality_rel", "gmm_alpha", "gmm_threshold"):
            if not 0 < getattr(self, key) <= 1:
                raise ValueError(f"{key} must be in (0, 1]")
        if not 0 < self.rprop_eta_minus < 1:
            raise ValueError("rprop_eta_minus must be in (0, 1)")
        if not self.rprop_eta_plus > 1:
            raise ValueError("rprop_eta_plus must be > 1")
        if not 0 < self.rprop_step_min <= self.rprop_step_init <= self.rprop_step_max:
            raise ValueError("rprop_step_min, rprop_step_init and rprop_step_max "
                             "must satisfy 0 < min <= init <= max")
        # a window wider than the frame finds no corner or loses every track
        side = min(self.working_resolution)
        for key in ("tensor_half_window", "track_half_window"):
            if not 2 * getattr(self, key) < side:
                raise ValueError(f"{key} must be < {(side + 1) // 2}, so that its "
                                 "window fits the working resolution")

    @property
    def stride(self) -> int:
        return self.window_stride if self.window_stride > 0 else self.window_frames


def parse_wxh(spec: str) -> tuple[int, int]:
    """(width, height) from a ``WxH`` spec: two sides of ASCII digits joined
    by ``x`` or ``X``; ValueError otherwise."""
    m = re.fullmatch(r"([0-9]+)[xX]([0-9]+)", spec)
    if m is None:
        raise ValueError(f"expected WxH, got {spec!r}")
    return int(m[1]), int(m[2])


_EXPECTED = {tuple: "WxH", int: "an integer", float: "a number"}


def _parse_value(name: str, raw: str, ftype):
    raw = raw.strip()
    try:
        return parse_wxh(raw) if ftype is tuple else ftype(raw)
    except ValueError:
        raise ValueError(f"{name}: expected {_EXPECTED[ftype]}, got {raw!r}") from None


def apply_settings(cfg: PipelineConfig, settings: dict[str, str]) -> PipelineConfig:
    types = {f.name: type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    updates = {}
    for key, raw in settings.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, raw, types[key])
    return dataclasses.replace(cfg, **updates)


def _key_value(text: str, error: str) -> tuple[str, str]:
    if "=" not in text:
        raise ValueError(error)
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def load_config(path: str | None, sets: list[str] | None = None) -> PipelineConfig:
    """The config of the file's ``key = value`` lines, then the ``--set``
    items ``key=value``, which are checked first; a later setting wins."""
    overrides = [_key_value(item, f"--set expects key=value, got {item!r}")
                 for item in sets or ()]
    settings = []
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: {e}") from None
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                settings.append(
                    _key_value(line, f"{path}:{lineno}: expected 'key = value'"))
    return apply_settings(PipelineConfig(), dict(settings + overrides))
