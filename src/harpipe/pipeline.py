"""End-to-end glue: frames -> windows -> sample vectors -> predictions."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import bgmodel, flowdesc, goodfeat, lkflow, mlp
from .config import PipelineConfig
from .frameio import Frame
from .flowdesc import SampleVector


def track_params(cfg: PipelineConfig) -> lkflow.TrackParams:
    return lkflow.TrackParams(
        half_window=cfg.track_half_window,
        max_iterations=cfg.track_max_iterations,
        convergence_eps=cfg.track_convergence_eps,
        residual_max=cfg.track_residual_max,
    )


def detect_features(frame: Frame, cfg: PipelineConfig) -> list[goodfeat.FeaturePoint]:
    """The ``cfg.feature_size`` strongest good features of one frame."""
    return goodfeat.detect_good_features(
        frame, max_n=cfg.feature_size, quality_rel=cfg.quality_rel,
        min_distance=cfg.min_distance, half_window=cfg.tensor_half_window,
    )


def extract_window_sample(
    frames: Sequence[Frame],
    cfg: PipelineConfig,
    label: Optional[str] = None,
    foreground: Optional[np.ndarray] = None,
) -> SampleVector:
    """One fixed-length sample from one window of frames.

    Features are detected on the first frame and tracked at every
    flow_step-th frame; each step fills and marks its tracked slots' rows
    of the (slots, steps, 12) descriptor table, which ``flowdesc.pool_window``
    averages. ``foreground`` optionally gates detection to moving pixels
    (bool mask of the first frame).
    """
    if not frames:
        raise ValueError("empty window")
    steps = (len(frames) - 1) // cfg.flow_step
    n = cfg.feature_size
    if steps < 1:
        return SampleVector(np.zeros(n * flowdesc.DESCRIPTOR_DIM), label=label)

    points = detect_features(frames[0], cfg)
    if foreground is not None:
        points = [
            p for p in points if foreground[int(round(p.y)), int(round(p.x))]
        ]
    params = track_params(cfg)
    xy = np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)
    alive = np.ones(len(xy), dtype=bool)
    prev_uv = np.zeros_like(xy)
    table = np.zeros((n, steps, flowdesc.DESCRIPTOR_DIM))
    tracked = np.zeros((n, steps), dtype=bool)
    frame_size = (frames[0].width, frames[0].height)

    pi = lkflow.build_pyramid(frames[0], cfg.pyramid_levels)
    intensity = lkflow.sample_windows(pi.levels[0], xy, 0)[:, 0, 0]
    h_probe = cfg.jacobian_probe_offset
    for step in range(steps):
        live = np.flatnonzero(alive)
        if live.size == 0:
            break
        pj = lkflow.build_pyramid(
            frames[(step + 1) * cfg.flow_step], cfg.pyramid_levels
        )

        # one call tracks every live slot together with its Jacobian probes
        probes = flowdesc.jacobian_probes(xy[live], h_probe)
        tracks = lkflow.track_points(pi, pj, probes.reshape(-1, 2), params)
        uv = flowdesc.flow_velocity(tracks, cfg.flow_step).reshape(probes.shape)
        centre_ok = tracks.tracked.reshape(probes.shape[:2])[:, 0]
        alive[live[~centre_ok]] = False
        live, uv = live[centre_ok], uv[centre_ok]
        new_xy = tracks.xy.reshape(probes.shape)[centre_ok, 0]
        # an untrackable neighbourhood leaves a zero Jacobian, so zero invariants
        jac, _ = flowdesc.flow_jacobian(uv, h_probe)
        cur_intensity = lkflow.sample_windows(pj.levels[0], new_xy, 0)[:, 0, 0]
        uv = uv[:, 0]
        # the first step has no velocity history, so u_t = v_t = 0 there
        uv_t = (uv - prev_uv[live]) / cfg.flow_step if step else np.zeros_like(uv)
        i_t = (cur_intensity - intensity[live]) / cfg.flow_step
        table[live, step] = flowdesc.point_descriptors(
            xy[live], frame_size, step, steps, i_t, uv, uv_t,
            flowdesc.flow_invariants(jac),
        )
        tracked[live, step] = True
        xy[live] = new_xy
        prev_uv[live] = uv
        intensity[live] = cur_intensity
        pi = pj

    return flowdesc.pool_window(table, tracked, label=label)


def window_starts(n_frames: int, cfg: PipelineConfig) -> list[int]:
    return list(range(0, n_frames - cfg.window_frames + 1, cfg.stride))


def sequence_samples(
    frames: Sequence[Frame], cfg: PipelineConfig, label: Optional[str] = None
) -> list[tuple[int, SampleVector]]:
    """(window start frame, sample) for each full window in the sequence."""
    frames = list(frames)
    gating_masks = None
    if cfg.foreground_gating:
        model = bgmodel.from_config(cfg, frames[0].width, frames[0].height)
        gating_masks = [model.update_and_classify(f).bits for f in frames]
    out = []
    for start in window_starts(len(frames), cfg):
        window = frames[start : start + cfg.window_frames]
        fg = gating_masks[start] if gating_masks is not None else None
        out.append(
            (start, extract_window_sample(window, cfg, label=label, foreground=fg))
        )
    return out


def classify_sequence(
    frames: Sequence[Frame], model: mlp.MlpModel, cfg: PipelineConfig
) -> list[tuple[int, int, np.ndarray]]:
    """(window start, predicted class, scores) per window."""
    frames = list(frames)
    if len(frames) < cfg.window_frames:
        raise ValueError(
            f"sequence has {len(frames)} frames, needs >= {cfg.window_frames}"
        )
    out = []
    for start, sample in sequence_samples(frames, cfg):
        cls, scores = mlp.predict(model, sample.values)
        out.append((start, cls, scores))
    return out


def majority_label(window_predictions: Sequence[tuple[int, int, np.ndarray]]) -> int:
    """Per-sequence label: majority vote, ties to the earliest window whose
    class is among the tied leaders."""
    votes = np.zeros(len(mlp.ACTION_LABELS), dtype=np.int64)
    for _, cls, _ in window_predictions:
        votes[cls] += 1
    best = votes.max()
    leaders = set(np.nonzero(votes == best)[0])
    for _, cls, _ in window_predictions:
        if cls in leaders:
            return cls
    raise ValueError("no window predictions")
