"""End-to-end glue: frames -> windows -> sample vectors -> per-sequence vote."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import flowdesc, goodfeat, lkflow, mlp
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


def detect_features(frame: Frame, cfg: PipelineConfig) -> np.ndarray:
    """The ``cfg.feature_size`` strongest good features of one frame, as
    ``goodfeat.detect_good_features`` rows (x, y, score)."""
    return goodfeat.detect_good_features(
        frame, max_n=cfg.feature_size, quality_rel=cfg.quality_rel,
        min_distance=cfg.min_distance, half_window=cfg.tensor_half_window,
    )


def extract_window_sample(
    frames: Sequence[Frame],
    cfg: PipelineConfig,
    label: Optional[str] = None,
) -> SampleVector:
    """One fixed-length sample from one window of frames.

    Features are detected on the first frame and tracked at every
    flow_step-th frame; each step fills and marks its tracked slots' rows
    of the (slots, steps, 12) descriptor table, which ``flowdesc.pool_window``
    averages.
    """
    if not frames:
        raise ValueError("empty window")
    steps = (len(frames) - 1) // cfg.flow_step
    n = cfg.feature_size
    if steps < 1:
        return SampleVector(np.zeros(n * flowdesc.DESCRIPTOR_DIM), label=label)

    params = track_params(cfg)
    xy = detect_features(frames[0], cfg)[:, :2].copy()
    alive = np.ones(len(xy), dtype=bool)
    prev_uv = np.zeros_like(xy)
    table = np.zeros((n, steps, flowdesc.DESCRIPTOR_DIM))
    tracked = np.zeros((n, steps), dtype=bool)
    frame_size = (frames[0].width, frames[0].height)

    pi = lkflow.build_pyramid(frames[0], cfg.pyramid_levels)
    intensity = lkflow.sample_windows(pi[0], xy, 0)[:, 0, 0]
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
        cur_intensity = lkflow.sample_windows(pj[0], new_xy, 0)[:, 0, 0]
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
    out = []
    for start in window_starts(len(frames), cfg):
        window = frames[start : start + cfg.window_frames]
        out.append((start, extract_window_sample(window, cfg, label=label)))
    return out


def majority_label(window_classes: Sequence[int]) -> int:
    """Per-sequence label from the per-window class indices: majority vote,
    ties to the earliest window whose class is among the tied leaders."""
    if len(window_classes) == 0:
        raise ValueError("no window predictions")
    votes = np.bincount(window_classes, minlength=len(mlp.ACTION_LABELS))
    leaders = votes == votes.max()
    return next(int(cls) for cls in window_classes if leaders[cls])
