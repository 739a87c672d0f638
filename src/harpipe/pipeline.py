"""End-to-end glue: frames -> windows -> sample vectors -> per-sequence vote."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from . import flowdesc, goodfeat, lkflow, mlp
from .config import PipelineConfig
from .frameio import Frame
from .flowdesc import SampleVector


# consecutive windows whose points share one tracker call per flow step; a
# module constant, so the call size and its memory stay bounded on long
# streams
WINDOWS_PER_CALL = 4


def window_starts(n_frames: int, cfg: PipelineConfig) -> list[int]:
    return list(range(0, n_frames - cfg.window_frames + 1, cfg.stride))


def sequence_samples(
    frames: Iterable[Frame], cfg: PipelineConfig, label: Optional[str] = None
) -> list[tuple[int, SampleVector]]:
    """(window start frame, sample) for each full window in the sequence,
    extracted ``WINDOWS_PER_CALL`` consecutive windows at a time.

    ``frames`` may be any iterable, read once. Only the frames of the
    current group that some window reads are held: a group runs as soon as
    its last window is complete, and the windows that the stream completes
    before it ends run as the last group.
    """
    stride = cfg.stride
    group_stride = WINDOWS_PER_CALL * stride
    span = group_stride - stride + cfg.window_frames  # frames of a full group
    # pixels of frames first, first + 1, ..., None where no window reads them
    held: deque[Optional[np.ndarray]] = deque()
    first = 0  # the current group's first window start
    out: list[tuple[int, SampleVector]] = []

    def run() -> None:
        starts = window_starts(len(held), cfg)
        values = _window_samples(held, starts, cfg)
        out.extend((first + s, SampleVector(v, label=label))
                   for s, v in zip(starts, values))

    for i, f in enumerate(frames):
        if i < first:  # between windows when the stride exceeds a window
            continue
        held.append(f.pixels if _is_read(i, cfg) else None)
        if len(held) == span:
            run()
            first += group_stride
            for _ in range(min(group_stride, span)):
                held.popleft()
    if len(held) >= cfg.window_frames:
        run()
    return out


def _is_read(i: int, cfg: PipelineConfig) -> bool:
    """Whether some window reads frame ``i``: as its first frame or as one
    of its flow-step frames."""
    last = (cfg.window_frames - 1) // cfg.flow_step * cfg.flow_step
    latest = i - i % cfg.stride  # the latest window start at or before i
    return any((i - s) % cfg.flow_step == 0
               for s in range(latest, max(i - last, 0) - 1, -cfg.stride))


def _window_samples(
    pixels: Sequence[Optional[np.ndarray]], starts: list[int], cfg: PipelineConfig
) -> np.ndarray:
    """The (W, 12 * N) samples of the W windows that start at ``starts`` in
    the sequence of (h, w) frame images ``pixels``, where a frame that no
    window reads may be None.

    Features are detected on each window's first frame and tracked at every
    flow_step-th frame. Window w's frames are image w of the stacked
    pyramids, so one tracker call per step takes every window's live slots
    with their Jacobian probes. Each step fills and marks its tracked slots'
    rows of the (W, slots, steps, 12) descriptor table, which
    ``flowdesc.pool_window`` averages.
    """
    steps = (cfg.window_frames - 1) // cfg.flow_step
    n = cfg.feature_size

    def pyramid(step: int) -> tuple[np.ndarray, ...]:
        stack = np.stack([pixels[s + step * cfg.flow_step] for s in starts])
        return lkflow.build_pyramid(stack, cfg.pyramid_levels)

    # every window's points in one array: point m is slot rank[m] of window win[m]
    found = [goodfeat.detect_good_features(pixels[s], cfg)[:, :2] for s in starts]
    xy = np.concatenate(found)
    win = np.repeat(np.arange(len(starts)), [len(f) for f in found])
    rank = np.concatenate([np.arange(len(f)) for f in found])
    alive = np.ones(len(xy), dtype=bool)
    prev_uv = np.zeros_like(xy)
    table = np.zeros((len(starts), n, steps, flowdesc.DESCRIPTOR_DIM))
    tracked = np.zeros((len(starts), n, steps), dtype=bool)
    frame_size = pixels[starts[0]].shape[::-1]

    pi = pyramid(0)
    intensity = lkflow.sample_windows(pi[0], xy, 0, win)[0, 0]
    h_probe = cfg.jacobian_probe_offset
    for step in range(steps):
        live = np.flatnonzero(alive)
        if live.size == 0:
            break
        pj = pyramid(step + 1)

        # one call tracks every live slot together with its Jacobian probes
        probes = flowdesc.jacobian_probes(xy[live], h_probe)
        tracks = lkflow.track_points(pi, pj, probes.reshape(-1, 2), cfg,
                                     np.repeat(win[live], probes.shape[1]))
        uv = flowdesc.flow_velocity(tracks, cfg.flow_step).reshape(probes.shape)
        centre_ok = tracks.tracked.reshape(probes.shape[:2])[:, 0]
        alive[live[~centre_ok]] = False
        live, uv = live[centre_ok], uv[centre_ok]
        new_xy = tracks.xy.reshape(probes.shape)[centre_ok, 0]
        # an untrackable neighbourhood leaves a zero Jacobian, so zero invariants
        jac, _ = flowdesc.flow_jacobian(uv, h_probe)
        cur_intensity = lkflow.sample_windows(pj[0], new_xy, 0, win[live])[0, 0]
        uv = uv[:, 0]
        # the first step has no velocity history, so u_t = v_t = 0 there
        uv_t = (uv - prev_uv[live]) / cfg.flow_step if step else np.zeros_like(uv)
        i_t = (cur_intensity - intensity[live]) / cfg.flow_step
        table[win[live], rank[live], step] = flowdesc.point_descriptors(
            xy[live], frame_size, step, steps, i_t, uv, uv_t,
            flowdesc.flow_invariants(jac),
        )
        tracked[win[live], rank[live], step] = True
        xy[live] = new_xy
        prev_uv[live] = uv
        intensity[live] = cur_intensity
        pi = pj

    return flowdesc.pool_window(table, tracked)


def majority_label(window_classes: Sequence[int]) -> int:
    """Per-sequence label from the per-window class indices: majority vote,
    ties to the earliest window whose class is among the tied leaders."""
    if len(window_classes) == 0:
        raise ValueError("no window predictions")
    votes = np.bincount(window_classes, minlength=len(mlp.ACTION_LABELS))
    leaders = votes == votes.max()
    return next(int(cls) for cls in window_classes if leaders[cls])
