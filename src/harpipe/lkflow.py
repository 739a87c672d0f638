"""Pyramidal iterative translational point tracker.

Coarse-to-fine, over a whole point array at once (Bouguet 2000, "Pyramidal
Implementation of the Lucas Kanade Feature Tracker"): each pyramid level
refines every point's displacement by solving its 2x2 structure-tensor
system against the gradient-weighted intensity difference, seeding the next
finer level with the doubled estimate. Template gradients come from the
first frame only. Points are dropped on singular tensors, out-of-bounds
windows, or a final RMS residual above threshold.

A pyramid level is one (h, w) image or a (K, h, w) stack of images, and each
point carries the index of its image, so one call tracks points on many
frame pairs. Level 0 is the input itself (a frame's uint8 pixels); the
bilinear blends promote it to float64. One sampler reads every window: it
samples the image extended by its edge pixels, with one shared fractional
offset per window. Sampled windows are held windows last, (n, n, P), so
every blend, difference and product runs over P contiguous values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig

SMOOTH_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
MIN_COARSEST_SIDE = 16
# a window's structure tensor is singular below this times the window area
MIN_EIGEN_PER_PIXEL = 1e-4


class TrackStatus(enum.IntEnum):
    TRACKED = 0
    LOST_RESIDUAL = 1
    LOST_BOUNDS = 2
    LOST_SINGULAR = 3


@dataclass(frozen=True)
class Tracks:
    """Tracking result for P points, in input order.

    ``xy`` and ``dxy`` are (P, 2) new positions and displacements,
    ``residual`` the (P,) RMS window residuals and ``status`` the (P,)
    ``TrackStatus`` codes. A point lost before its residual was measured
    keeps its input position, a zero displacement and an infinite residual.
    """

    xy: np.ndarray
    dxy: np.ndarray
    residual: np.ndarray
    status: np.ndarray

    @property
    def tracked(self) -> np.ndarray:
        return self.status == TrackStatus.TRACKED


def _smooth_decimate(img: np.ndarray) -> np.ndarray:
    """5-tap binomial smoothing with edge padding of the last two axes,
    computed at every second row and column only: each pass sums strided
    slices of one padded array, tap by tap. Returns a C-contiguous float64
    array."""
    h, w = img.shape[-2:]
    pad = [(0, 0)] * (img.ndim - 2) + [(2, 2), (2, 2)]
    padded = np.pad(img, pad, mode="edge")
    tmp = SMOOTH_KERNEL[0] * padded[..., :, 0:w:2]
    for i in range(1, 5):
        tmp += SMOOTH_KERNEL[i] * padded[..., :, i : i + w : 2]
    out = SMOOTH_KERNEL[0] * tmp[..., 0:h:2, :]
    for i in range(1, 5):
        out += SMOOTH_KERNEL[i] * tmp[..., i : i + h : 2, :]
    return out


def build_pyramid(img: np.ndarray, levels: int) -> tuple[np.ndarray, ...]:
    """Low-pass-and-decimate pyramid of an (h, w) image, or of a (K, h, w)
    stack of images level by level, full resolution first. Level 0 is the
    input itself (a frame's uint8 pixels), the coarser levels are float64;
    every level is C-contiguous. The level count is silently clamped so the
    coarsest level keeps both sides >= 16 px."""
    out = [np.ascontiguousarray(img)]
    for _ in range(levels - 1):
        h, w = out[-1].shape[-2:]
        if (h + 1) // 2 < MIN_COARSEST_SIDE or (w + 1) // 2 < MIN_COARSEST_SIDE:
            break
        out.append(_smooth_decimate(out[-1]))
    return tuple(out)


def sample_windows(
    img: np.ndarray, xy: np.ndarray, hw: int, image: np.ndarray
) -> np.ndarray:
    """Bilinear (2hw+1)^2 windows around each point of ``xy`` (P, 2), over
    the image extended by its edge pixels; returns them windows last,
    (2hw+1, 2hw+1, P). ``img`` is an (h, w) image or a (K, h, w) stack and
    ``image`` the (P,) stack index of each point, 0 for an (h, w) image.
    ``hw=0`` samples the points themselves."""
    h, w = img.shape[-2:]
    n = 2 * hw + 1
    offset = np.asarray(image, dtype=np.intp) * (h * w)
    shifted = xy - hw
    lo = np.floor(shifted)  # each window's top-left sample, (x0, y0)
    fx, fy = (shifted - lo).T

    # a window is unit-spaced from one shared fractional offset: a blend of
    # shifted slices of one (n+1)^2 patch, whose rows and columns (one buffer)
    # are clamped to the image, so a window that crosses the border repeats
    # its edge
    taps = lo.T.astype(np.intp)[:, None] + np.arange(n + 1)[:, None]
    np.minimum(np.maximum(taps, 0, out=taps), [[[w - 1]], [[h - 1]]], out=taps)
    ix, iy = taps[0], taps[1] * w + offset
    # each blend weighs its trailing slice in place, once its leading slice
    # has been read, so neither blend allocates a temporary
    patch = img.reshape(-1).take(iy[:, None] + ix).astype(np.float64, copy=False)
    rows = patch[:, :-1] * (1 - fx)
    patch[:, 1:] *= fx
    rows += patch[:, 1:]
    del patch
    out = rows[:-1] * (1 - fy)
    rows[1:] *= fy
    out += rows[1:]
    return out


def _window_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of each window of ``a * b``, for windows-last (..., n, n, P)
    arrays; returns (..., P). The products are written window by window into
    one contiguous buffer, so each window is added in the same order as a
    2-D ``sum()``."""
    *lead, n, m, p = max(a.shape, b.shape, key=len)
    out = np.empty((*lead, p, n, m))
    np.multiply(a, b, out=out.swapaxes(-3, -1).swapaxes(-3, -2))
    return out.reshape(*lead, p, n * m).sum(axis=-1)


def _points(mask: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Each array of per-point values (points last) at the points of mask."""
    if mask.all():
        return arrays
    return [a[..., mask] for a in arrays]


def _inside(pts: np.ndarray, lo: float, hi_x: float, hi_y: float) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return (lo <= x) & (x <= hi_x) & (lo <= y) & (y <= hi_y)


def _template_windows(
    img: np.ndarray, p: np.ndarray, hw: int, image: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (2hw+1)^2 template windows of the points ``p`` and, stacked, their
    x and y central-difference gradient windows, all cut from one
    (2hw+3)^2 window per point. For a point inside ``[hw, side - 1 - hw]``
    the template window equals ``sample_windows(img, p, hw, image)`` bit for
    bit: both take the same patch pixels and fractional offsets. The
    template windows are a copy, so the larger windows are freed here."""
    big = sample_windows(img, p, hw + 1, image)
    n = 2 * hw + 1
    grad = np.empty((2, n, n, len(p)))
    np.subtract(big[1:-1, 2:], big[1:-1, :-2], out=grad[0])
    np.subtract(big[2:, 1:-1], big[:-2, 1:-1], out=grad[1])
    grad /= 2.0
    return np.ascontiguousarray(big[1:-1, 1:-1]), grad


def _refine(
    imgi: np.ndarray,
    imgj: np.ndarray,
    p: np.ndarray,
    guess: np.ndarray,
    image: np.ndarray,
    cfg: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One pyramid level's iterations for the points ``p`` (L, 2), in that
    level's pixels, seeded with the displacements ``guess``. Returns each
    point's (L,) status, LOST_SINGULAR for a singular structure tensor and
    LOST_BOUNDS for an estimate that leaves the level, its refined (L, 2)
    displacement, and the (n, n, L) template windows of ``p``."""
    hw = cfg.track_half_window
    eigen_floor = MIN_EIGEN_PER_PIXEL * (2 * hw + 1) ** 2
    eps_sq = cfg.track_convergence_eps * cfg.track_convergence_eps
    lh, lw = imgi.shape[-2:]
    status = np.full(len(p), TrackStatus.TRACKED, dtype=np.int8)

    windows, grad = _template_windows(imgi, p, hw, image)
    zxx, zxy, zyy = (_window_dots(grad[a], grad[b]) for a, b in ((0, 0), (0, 1), (1, 1)))
    det = zxx * zyy - zxy * zxy
    lam_min = (zxx + zyy - np.sqrt((zxx - zyy) ** 2 + 4 * zxy**2)) / 2.0
    singular = (lam_min < eigen_floor) | (det <= 0.0)
    status[singular] = TrackStatus.LOST_SINGULAR

    d = np.zeros_like(p)
    active = np.flatnonzero(~singular)  # points still iterating
    # their template and gradient windows, tensor terms and image indices,
    # compacted only when the active set shrinks
    state = _points(~singular, [windows, grad, zxx, zxy, zyy, det, image])
    for _ in range(cfg.track_max_iterations):
        if active.size == 0:
            break
        q = p[active] + guess[active] + d[active]
        ok = _inside(q, 0.0, lw - 1, lh - 1)
        status[active[~ok]] = TrackStatus.LOST_BOUNDS
        active, q, state = active[ok], q[ok], _points(ok, state)
        iw, grad, zxx, zxy, zyy, det, k = state
        diff = sample_windows(imgj, q, hw, k)
        np.subtract(iw, diff, out=diff)
        ex, ey = _window_dots(diff, grad)
        sx = (zyy * ex - zxy * ey) / det
        sy = (zxx * ey - zxy * ex) / det
        d[active, 0] += sx
        d[active, 1] += sy
        moving = ~(sx * sx + sy * sy < eps_sq)
        active, state = active[moving], _points(moving, state)
    return status, guess + d, windows


def track_points(
    pi: tuple[np.ndarray, ...],
    pj: tuple[np.ndarray, ...],
    xy: np.ndarray,
    cfg: PipelineConfig,
    image: np.ndarray | None = None,
    guess: np.ndarray | None = None,
) -> Tracks:
    """Track every point of ``xy`` (P, 2) from pyramid ``pi`` to ``pj`` with
    the ``track_*`` settings of ``cfg``.

    Both pyramids are of images of one size, (h, w) or (K, h, w) stacks;
    ``image`` gives each point's (P,) index into the stacks, and a point is
    tracked from image k of ``pi`` to image k of ``pj`` exactly as it would
    be on its own pair (all points use image 0 when omitted).

    ``guess`` is each point's (P, 2) initial displacement in level-0 pixels
    (Bouguet's g), scaled to the coarsest level; level 0 starts from it
    exactly, so a one-level ``pi[:1]``, ``pj[:1]`` refines it at full
    resolution only. Omitted, every point starts from zero displacement.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    image = (np.zeros(len(xy), dtype=np.intp) if image is None
             else np.asarray(image, dtype=np.intp))
    hw = cfg.track_half_window
    h0, w0 = pi[0].shape[-2:]
    status = np.full(len(xy), TrackStatus.TRACKED, dtype=np.int8)
    status[~_inside(xy, hw, w0 - 1 - hw, h0 - 1 - hw)] = TrackStatus.LOST_BOUNDS

    # displacement after the latest level, in that level's pixels; the level
    # loop doubles it before each level, so a power-of-two scale hands level
    # 0 the guess exactly
    shift = (np.zeros_like(xy) if guess is None else
             np.asarray(guess, dtype=np.float64).reshape(-1, 2) / (1 << len(pi)))
    live = np.flatnonzero(status == TrackStatus.TRACKED)
    # the latest level's template windows, and the live points' places in them
    iw, at = np.empty((2 * hw + 1, 2 * hw + 1, 0)), np.empty(0, dtype=np.intp)
    for level in reversed(range(len(pi))):
        if live.size == 0:
            break
        del iw  # the coarser level's, freed before this level samples its own
        status[live], shift[live], iw = _refine(
            pi[level], pj[level], xy[live] / (1 << level), 2.0 * shift[live],
            image[live], cfg)
        at = np.flatnonzero(status[live] == TrackStatus.TRACKED)
        live = live[at]

    # a live point went through level 0, where it lies inside
    # [hw, side - 1 - hw], so its template window there is its residual's
    moved = xy[live] + shift[live]
    ok = _inside(moved, hw, w0 - 1 - hw, h0 - 1 - hw)
    status[live[~ok]] = TrackStatus.LOST_BOUNDS
    live, moved, at = live[ok], moved[ok], at[ok]
    diff = sample_windows(pj[0], moved, hw, image[live])
    np.subtract(iw[..., at], diff, out=diff)
    residual = np.sqrt(_window_dots(diff, diff) / (diff.shape[0] * diff.shape[1]))
    status[live[~(residual <= cfg.track_residual_max)]] = TrackStatus.LOST_RESIDUAL

    dxy = np.zeros_like(xy)
    residuals = np.full(len(xy), np.inf)
    dxy[live] = shift[live]
    residuals[live] = residual
    return Tracks(xy + dxy, dxy, residuals, status)
