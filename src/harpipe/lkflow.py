"""Pyramidal iterative translational point tracker.

Coarse-to-fine, over a whole point array at once (Bouguet 2000, "Pyramidal
Implementation of the Lucas Kanade Feature Tracker"): each pyramid level
refines every point's displacement by solving its 2x2 structure-tensor
system against the gradient-weighted intensity difference, seeding the next
finer level with the doubled estimate. Template gradients come from the
first frame only. Points are dropped on singular tensors, out-of-bounds
windows, or a final RMS residual above threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .frameio import Frame

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
class TrackParams:
    half_window: int = 7
    max_iterations: int = 20
    convergence_eps: float = 0.03
    residual_max: float = 12.0


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


def _smooth_separable(img: np.ndarray) -> np.ndarray:
    """5-tap binomial smoothing with edge padding: each pass sums shifted
    slices of one padded array, tap by tap."""
    h, w = img.shape
    padded = np.pad(img, 2, mode="edge")
    tmp = SMOOTH_KERNEL[0] * padded[:, :w]
    for i in range(1, 5):
        tmp += SMOOTH_KERNEL[i] * padded[:, i : i + w]
    out = SMOOTH_KERNEL[0] * tmp[:h]
    for i in range(1, 5):
        out += SMOOTH_KERNEL[i] * tmp[i : i + h]
    return out


def build_pyramid(f: Frame | np.ndarray, levels: int) -> tuple[np.ndarray, ...]:
    """Low-pass-and-decimate pyramid: the float64 levels, full resolution
    first; level count silently clamped so the coarsest level keeps both
    sides >= 16 px."""
    img = f.as_float() if isinstance(f, Frame) else np.asarray(f, dtype=np.float64)
    out = [img]
    for _ in range(max(1, levels) - 1):
        prev = out[-1]
        if (prev.shape[0] + 1) // 2 < MIN_COARSEST_SIDE:
            break
        if (prev.shape[1] + 1) // 2 < MIN_COARSEST_SIDE:
            break
        out.append(_smooth_separable(prev)[::2, ::2])
    return tuple(out)


def _clamped_taps(c: np.ndarray, hw: int, size: int):
    """Lower and upper sample indices and the fractional weight of each of
    the 2hw+1 taps along one axis, every tap clamped to the image on its
    own; (P, 2hw+1) each."""
    pos = np.clip(c[:, None] + np.arange(-hw, hw + 1, dtype=np.float64),
                  0.0, size - 1.0)
    lo = np.floor(pos)
    frac = pos - lo
    lo = lo.astype(np.intp)
    return lo, np.minimum(lo + 1, size - 1), frac


def sample_windows(img: np.ndarray, xy: np.ndarray, hw: int) -> np.ndarray:
    """Bilinear (2hw+1)^2 windows around each point of ``xy`` (P, 2), clamped
    at the borders; returns (P, 2hw+1, 2hw+1). ``hw=0`` samples the points
    themselves."""
    h, w = img.shape
    n = 2 * hw + 1
    flat = img.ravel()
    x0 = np.floor(xy[:, 0] - hw)
    y0 = np.floor(xy[:, 1] - hw)
    interior = (0 <= x0) & (x0 + n < w) & (0 <= y0) & (y0 + n < h)
    out = np.empty((len(xy), n, n))

    # an interior window is unit-spaced from one shared fractional offset:
    # a blend of shifted slices of one (n+1)^2 patch
    i = np.flatnonzero(interior)
    fx = (xy[i, 0] - hw - x0[i])[:, None, None]
    fy = (xy[i, 1] - hw - y0[i])[:, None, None]
    grid = np.arange(n + 1)
    corner = (y0[i] * w + x0[i]).astype(np.intp)
    patch = flat[corner[:, None, None] + (grid[:, None] * w + grid)]
    rows = patch[:, :, :-1] * (1 - fx) + patch[:, :, 1:] * fx
    out[i] = rows[:, :-1] * (1 - fy) + rows[:, 1:] * fy

    # a window that crosses the border clamps every tap on its own
    b = np.flatnonzero(~interior)
    if b.size:
        col_lo, col_hi, fx = _clamped_taps(xy[b, 0], hw, w)
        row_lo, row_hi, fy = _clamped_taps(xy[b, 1], hw, h)
        top_rows = row_lo[:, :, None] * w
        bot_rows = row_hi[:, :, None] * w
        col_lo = col_lo[:, None, :]
        col_hi = col_hi[:, None, :]
        fx = fx[:, None, :]
        fy = fy[:, :, None]
        top = flat[top_rows + col_lo] * (1 - fx) + flat[top_rows + col_hi] * fx
        bot = flat[bot_rows + col_lo] * (1 - fx) + flat[bot_rows + col_hi] * fx
        out[b] = top * (1 - fy) + bot * fy
    return out


def _window_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each (P, n, n) window, in the same order as a 2-D ``sum()``."""
    return a.reshape(a.shape[0], a.shape[1] * a.shape[2]).sum(axis=1)


def track_points(
    pi: tuple[np.ndarray, ...],
    pj: tuple[np.ndarray, ...],
    xy: np.ndarray,
    params: TrackParams = TrackParams(),
) -> Tracks:
    """Track every point of ``xy`` (P, 2) from pyramid ``pi`` to ``pj``."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    hw = params.half_window
    eigen_floor = MIN_EIGEN_PER_PIXEL * (2 * hw + 1) ** 2
    eps_sq = params.convergence_eps**2
    h0, w0 = pi[0].shape
    status = np.full(len(xy), TrackStatus.TRACKED, dtype=np.int8)

    def inside(pts: np.ndarray, lo: float, hi_x: float, hi_y: float) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        return (lo <= x) & (x <= hi_x) & (lo <= y) & (y <= hi_y)

    status[~inside(xy, hw, w0 - 1 - hw, h0 - 1 - hw)] = TrackStatus.LOST_BOUNDS

    # displacement after the latest level, in that level's pixels
    shift = np.zeros_like(xy)
    n_levels = min(len(pi), len(pj))
    for level in reversed(range(n_levels)):
        live = np.flatnonzero(status == TrackStatus.TRACKED)
        if live.size == 0:
            break
        imgi = pi[level]
        imgj = pj[level]
        lh, lw = imgi.shape
        p = xy[live] / (1 << level)

        # one (2hw+3)^2 window yields the template and both gradient windows
        big = sample_windows(imgi, p, hw + 1)
        grad_x = (big[:, 1:-1, 2:] - big[:, 1:-1, :-2]) / 2.0
        grad_y = (big[:, 2:, 1:-1] - big[:, :-2, 1:-1]) / 2.0
        zxx = _window_sums(grad_x * grad_x)
        zxy = _window_sums(grad_x * grad_y)
        zyy = _window_sums(grad_y * grad_y)
        det = zxx * zyy - zxy * zxy
        lam_min = (zxx + zyy - np.sqrt((zxx - zyy) ** 2 + 4 * zxy**2)) / 2.0
        singular = (lam_min < eigen_floor) | (det <= 0.0)
        status[live[singular]] = TrackStatus.LOST_SINGULAR
        keep = ~singular
        live, p = live[keep], p[keep]
        iw = big[keep, 1:-1, 1:-1]
        grad_x, grad_y = grad_x[keep], grad_y[keep]
        zxx, zxy, zyy, det = zxx[keep], zxy[keep], zyy[keep], det[keep]

        guess = 2.0 * shift[live]
        d = np.zeros_like(p)
        active = np.arange(live.size)  # rows of ``live`` still iterating
        for _ in range(params.max_iterations):
            if active.size == 0:
                break
            q = p[active] + guess[active] + d[active]
            ok = inside(q, 0.0, lw - 1, lh - 1)
            status[live[active[~ok]]] = TrackStatus.LOST_BOUNDS
            active, q = active[ok], q[ok]
            diff = iw[active] - sample_windows(imgj, q, hw)
            ex = _window_sums(diff * grad_x[active])
            ey = _window_sums(diff * grad_y[active])
            sx = (zyy[active] * ex - zxy[active] * ey) / det[active]
            sy = (zxx[active] * ey - zxy[active] * ex) / det[active]
            d[active, 0] += sx
            d[active, 1] += sy
            active = active[~(sx * sx + sy * sy < eps_sq)]
        shift[live] = guess + d

    live = np.flatnonzero(status == TrackStatus.TRACKED)
    moved = xy[live] + shift[live]
    ok = inside(moved, hw, w0 - 1 - hw, h0 - 1 - hw)
    status[live[~ok]] = TrackStatus.LOST_BOUNDS
    live, moved = live[ok], moved[ok]
    iw = sample_windows(pi[0], xy[live], hw)
    jw = sample_windows(pj[0], moved, hw)
    sq = (iw - jw) ** 2
    residual = np.sqrt(_window_sums(sq) / (sq.shape[1] * sq.shape[2]))
    status[live[~(residual <= params.residual_max)]] = TrackStatus.LOST_RESIDUAL

    new_xy = xy.copy()
    dxy = np.zeros_like(xy)
    residuals = np.full(len(xy), np.inf)
    new_xy[live] = moved
    dxy[live] = shift[live]
    residuals[live] = residual
    return Tracks(new_xy, dxy, residuals, status)
