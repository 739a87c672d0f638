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
WINDOWS_PER_CALL = 8
# the Jacobian probes go to the tracker at most this many times feature_size
# at a time: the 4 probes of each slot of 4 windows
PROBES_PER_CALL = 16


class WindowGrouper:
    """Extracts the full windows of one sequence after another,
    ``WINDOWS_PER_CALL`` windows at a time, whichever sequences they come
    from; a window never straddles two sequences. Every frame must be of one
    size.

    Each sequence's frames are read once, as a stream, and held by their
    position in the stream of all of them. Only the frames that a window
    which has not yet run reads are held: a window joins the pending group
    once its last frame arrives, and a full group runs at once. When a
    sequence ends, its frames that no pending window reads are dropped, and
    the pending windows run with the next sequences' or in ``finish``.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.held: dict[int, np.ndarray] = {}  # stream position -> pixels
        self.group: list[int] = []  # starts of the complete windows that have not run
        self.done: list[np.ndarray] = []  # each group's values, once it ran
        self.size = 0  # frames read

    def add(self, frames: Iterable[Frame]) -> list[int]:
        """Reads one sequence's ``frames``, any iterable, once; returns the
        start frames of its full windows, counted from its first frame."""
        cfg = self.cfg
        reads = range(0, cfg.window_frames, cfg.flow_step)  # offsets a window reads
        base = first = self.size  # first: the earliest start that has not run
        starts = []
        for i, f in enumerate(frames, base):
            if any(i - s in reads for s in range(first, i + 1, cfg.stride)):
                self.held[i] = f.pixels
            self.size = i + 1
            start = self.size - cfg.window_frames
            if start >= base and (start - base) % cfg.stride == 0:
                starts.append(start - base)
                self.group.append(start)
            if len(self.group) == WINDOWS_PER_CALL:
                self._run()
                first = start + cfg.stride
                self.held = {k: v for k, v in self.held.items() if k >= first}
        self.held = {s + r: self.held[s + r] for s in self.group for r in reads}
        return starts

    def finish(self) -> np.ndarray:
        """The (W, 12 * N) samples of every window added, in order, once the
        pending group has run."""
        if self.group:
            self._run()
            self.held = {}
        empty = np.empty((0, flowdesc.DESCRIPTOR_DIM * self.cfg.feature_size))
        return np.concatenate([empty, *self.done])

    def _run(self) -> None:
        self.done.append(_window_samples(self.held, self.group, self.cfg))
        self.group = []


def sequence_samples(
    frames: Iterable[Frame], cfg: PipelineConfig, label: Optional[str] = None
) -> list[tuple[int, SampleVector]]:
    """(window start frame, sample) for each full window in the sequence:
    ``WindowGrouper``'s one-sequence case, so ``frames`` may be any
    iterable, read once, and only one window group of them is held."""
    grouper = WindowGrouper(cfg)
    starts = grouper.add(frames)
    return [(s, SampleVector(v, label=label)) for s, v in zip(starts, grouper.finish())]


def _track_step(
    pi: tuple[np.ndarray, ...],
    pj: tuple[np.ndarray, ...],
    xy: np.ndarray,
    image: np.ndarray,
    cfg: PipelineConfig,
) -> tuple[np.ndarray, ...]:
    """One flow step of the (P, 2) points ``xy`` on images ``image`` of the
    pyramids ``pi`` and ``pj``: one tracker call for the points over every
    pyramid level, then the 4 Jacobian probes of each kept point at level 0
    only, each starting from its point's displacement, in calls of at most
    ``PROBES_PER_CALL * feature_size`` probes.

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
    probe_xy = points[:, 1:].reshape(-1, 2)
    probe_image = np.repeat(image[kept], 4)
    probe_guess = np.repeat(centre_dxy, 4, axis=0)
    probe_dxy = np.empty_like(probe_xy)
    probe_ok = np.empty(len(probe_xy), dtype=bool)
    # each probe is tracked on its own, so cutting the calls moves no bit
    cap = PROBES_PER_CALL * cfg.feature_size
    for c in range(0, len(probe_xy), cap):
        part = slice(c, c + cap)
        probes = lkflow.track_points(pi[:1], pj[:1], probe_xy[part], cfg,
                                     probe_image[part], probe_guess[part])
        probe_dxy[part], probe_ok[part] = probes.dxy, probes.tracked
    # a probe whose offset rounds away lies on its point and takes its track,
    # so the Jacobian's difference there is exactly zero
    same = (points[:, 1:] == points[:, :1]).all(axis=2)
    probe_dxy = np.where(same[..., None], centre_dxy[:, None],
                         probe_dxy.reshape(-1, 4, 2))
    uv = np.concatenate((centre_dxy[:, None], probe_dxy), axis=1) / cfg.flow_step
    tracked = np.insert(same | probe_ok.reshape(-1, 4), 0, True, axis=1)
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
