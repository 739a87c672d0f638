"""End-to-end glue: frames -> windows -> sample vectors -> per-sequence vote."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import flowdesc, goodfeat, lkflow
from .config import PipelineConfig
from .frameio import Frame
from .flowdesc import SampleVector


# consecutive windows whose points share one tracker call per flow step; a
# module constant, so the call size and its memory stay bounded on long
# streams
WINDOWS_PER_CALL = 4


def sequence_samples(
    frames: Iterable[Frame], cfg: PipelineConfig, label: Optional[str] = None
) -> list[tuple[int, SampleVector]]:
    """(window start frame, sample) for each full window in the sequence,
    extracted ``WINDOWS_PER_CALL`` consecutive windows at a time.

    ``frames`` may be any iterable, read once. Only the frames that a window
    which has not yet run reads are held: a window joins the pending group
    once its last frame arrives, a full group runs at once, and the windows
    that are complete when the stream ends run as the last group.
    """
    reads = range(0, cfg.window_frames, cfg.flow_step)  # offsets a window reads
    held: dict[int, np.ndarray] = {}  # frame index -> pixels
    group: list[int] = []  # starts of the complete windows that have not run
    first = 0  # the earliest window start that has not run
    out: list[tuple[int, np.ndarray]] = []  # (window start, values)
    for i, f in enumerate(frames):
        if any(i - s in reads for s in range(first, i + 1, cfg.stride)):
            held[i] = f.pixels
        start = i + 1 - cfg.window_frames
        if start >= first and start % cfg.stride == 0:
            group.append(start)
        if len(group) == WINDOWS_PER_CALL:
            out += zip(group, _window_samples(held, group, cfg))
            first = group[-1] + cfg.stride
            group = []
            held = {k: v for k, v in held.items() if k >= first}
    if group:
        out += zip(group, _window_samples(held, group, cfg))
    return [(s, SampleVector(v, label=label)) for s, v in out]


def _track_step(
    pi: tuple[np.ndarray, ...],
    pj: tuple[np.ndarray, ...],
    xy: np.ndarray,
    image: np.ndarray,
    cfg: PipelineConfig,
) -> tuple[np.ndarray, ...]:
    """One flow step of the (P, 2) points ``xy`` on images ``image`` of the
    pyramids ``pi`` and ``pj``, in two tracker calls: the points over every
    pyramid level, then the 4 Jacobian probes of each kept point at level 0
    only, each starting from its point's displacement.

    Returns the (P,) mask of points whose track was kept and, for those K
    points, their (K, 2) new positions, (K, 2) velocities in pixels per
    frame, the four (K,) ``flowdesc.flow_invariants`` and the (K,)
    intensities at the new positions. An untrackable neighbourhood leaves a
    zero Jacobian, so zero invariants.
    """
    h = cfg.jacobian_probe_offset
    centres = lkflow.track_points(pi, pj, xy, cfg, image)
    kept = centres.tracked
    points = flowdesc.jacobian_probes(xy[kept], h)  # (K, 5, 2), each point first
    centre_dxy = centres.dxy[kept]
    probes = lkflow.track_points(pi[:1], pj[:1], points[:, 1:].reshape(-1, 2),
                                 cfg, np.repeat(image[kept], 4),
                                 np.repeat(centre_dxy, 4, axis=0))
    # a probe whose offset rounds away lies on its point and takes its track,
    # so the Jacobian's difference there is exactly zero
    same = (points[:, 1:] == points[:, :1]).all(axis=2)
    probe_dxy = np.where(same[..., None], centre_dxy[:, None],
                         probes.dxy.reshape(-1, 4, 2))
    uv = np.concatenate((centre_dxy[:, None], probe_dxy), axis=1) / cfg.flow_step
    tracked = np.insert(same | probes.tracked.reshape(-1, 4), 0, True, axis=1)
    jac, _ = flowdesc.flow_jacobian(uv, tracked, h)
    new_xy = centres.xy[kept]
    intensity = lkflow.sample_windows(pj[0], new_xy, 0, image[kept])[0, 0]
    return kept, new_xy, uv[:, 0], flowdesc.flow_invariants(jac), intensity


def _window_samples(
    pixels: Mapping[int, np.ndarray], starts: list[int], cfg: PipelineConfig
) -> np.ndarray:
    """The (W, 12 * N) samples of the W windows that start at ``starts``,
    reading the (h, w) frame images ``pixels[i]`` by frame index.

    Features are detected on each window's first frame and tracked at every
    flow_step-th frame. Window w's frames are image w of the stacked
    pyramids, so one ``_track_step`` per step takes every window's live
    slots. Each step adds its tracked slots' descriptors to their running
    sums and counts, which ``flowdesc.pool_window`` averages.
    """
    steps = (cfg.window_frames - 1) // cfg.flow_step

    def pyramid(step: int) -> tuple[np.ndarray, ...]:
        stack = np.stack([pixels[s + step * cfg.flow_step] for s in starts])
        return lkflow.build_pyramid(stack, cfg.pyramid_levels)

    # the live points in one array: point m is slot rank[m] of window win[m],
    # with its position, last velocity and intensity
    found = [goodfeat.detect_good_features(pixels[s], cfg)[:, :2] for s in starts]
    xy = np.concatenate(found)
    win = np.repeat(np.arange(len(starts)), [len(f) for f in found])
    rank = np.concatenate([np.arange(len(f)) for f in found])
    uv = np.zeros_like(xy)
    sums = np.zeros((len(starts), cfg.feature_size, flowdesc.DESCRIPTOR_DIM))
    counts = np.zeros((len(starts), cfg.feature_size), dtype=np.intp)
    frame_size = pixels[starts[0]].shape[::-1]

    pi = pyramid(0)
    intensity = lkflow.sample_windows(pi[0], xy, 0, win)[0, 0]
    for step in range(steps):
        if win.size == 0:
            break
        pj = pyramid(step + 1)
        kept, new_xy, new_uv, invariants, new_intensity = _track_step(
            pi, pj, xy, win, cfg)
        win, rank = win[kept], rank[kept]
        # the first step has no velocity history, so u_t = v_t = 0 there
        uv_t = (new_uv - uv[kept]) / cfg.flow_step if step else np.zeros_like(new_uv)
        i_t = (new_intensity - intensity[kept]) / cfg.flow_step
        sums[win, rank] += flowdesc.point_descriptors(
            xy[kept], frame_size, step, steps, i_t, new_uv, uv_t, invariants)
        counts[win, rank] += 1
        xy, uv, intensity, pi = new_xy, new_uv, new_intensity, pj

    return flowdesc.pool_window(sums, counts, steps)


def majority_label(window_classes: Sequence[int]) -> int:
    """Per-sequence label from the per-window class indices: majority vote,
    ties to the earliest window whose class is among the tied leaders."""
    if len(window_classes) == 0:
        raise ValueError("no window predictions")
    votes = np.bincount(window_classes)
    leaders = votes == votes.max()
    return next(int(cls) for cls in window_classes if leaders[cls])
