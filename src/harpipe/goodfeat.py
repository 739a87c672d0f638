"""Minimum-eigenvalue corner detection on the structure tensor.

The tensor is the windowed sum of outer products of central-difference image
gradients; a point is trackable when the smaller eigenvalue clears a threshold
set relative to the frame-wide maximum.
"""

from __future__ import annotations

import numpy as np

from .config import PipelineConfig


def spatial_gradients(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients (Ix, Iy); zero on the one-pixel border."""
    if min(pixels.shape) < 3:
        raise ValueError("frame must be at least 3x3")
    img = pixels.astype(np.float64)
    ix, iy = np.zeros((2, *img.shape))
    ix[:, 1:-1] = (img[:, 2:] - img[:, :-2]) / 2.0
    iy[1:-1, :] = (img[2:, :] - img[:-2, :]) / 2.0
    return ix, iy


def _box_sums(a: np.ndarray, h: int) -> np.ndarray:
    """Sums of ``a`` over each (2h+1)-square window that fits: shifted
    slices added along the rows, then along the columns."""
    vh, vw = a.shape[0] - 2 * h, a.shape[1] - 2 * h
    rows = sum(a[d : d + vh] for d in range(2 * h + 1))
    return sum(rows[:, d : d + vw] for d in range(2 * h + 1))


def min_eigenvalue_map(pixels: np.ndarray, half_window: int) -> np.ndarray:
    """Per-pixel smaller structure-tensor eigenvalue; zero where the window
    does not fit. On 8-bit frames the gradient products are multiples of 1/4
    and their window sums far below 2**53, so the sums are exact in any order."""
    ix, iy = spatial_gradients(pixels)
    h = half_window
    if min(ix.shape) <= 2 * h:
        return np.zeros_like(ix)
    # one gradient product at a time, which keeps the working set small
    sxx, sxy, syy = (_box_sums(a * b, h) for a, b in ((ix, ix), (ix, iy), (iy, iy)))
    disc = np.sqrt((sxx - syy) ** 2 + 4.0 * sxy**2)
    return np.pad(np.maximum(0.0, (sxx + syy - disc) / 2.0), h)


def _nms_3x3(lam: np.ndarray) -> np.ndarray:
    """True where lam is >= all 8 neighbors (outside treated as -inf): where
    it equals its 3x3 maximum, taken along the rows, then the columns."""
    p = np.pad(lam, 1, mode="constant", constant_values=-np.inf)
    rows = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    return lam >= np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def detect_good_features(pixels: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """The ``cfg.feature_size`` strongest corners of an (h, w) image after
    relative thresholding (``quality_rel``), 3x3 non-max suppression and
    greedy minimum-distance selection (``min_distance``) on the
    ``tensor_half_window`` structure tensor, as an (n, 3) array of rows
    (x, y, score); (0, 3) when there are none. Sorted by descending score, ties broken by lower y then lower x."""
    lam = min_eigenvalue_map(pixels, cfg.tensor_half_window)
    lam_max = lam.max()
    if lam_max <= 0.0:
        return np.empty((0, 3))
    max_n, min_dist_sq = cfg.feature_size, cfg.min_distance * cfg.min_distance
    threshold = cfg.quality_rel * lam_max
    candidates = _nms_3x3(lam) & (lam >= threshold)
    ys, xs = np.nonzero(candidates)
    scores = lam[ys, xs]
    order = np.lexsort((xs, ys, -scores))

    chosen: list[int] = []
    cx = np.empty(max_n)
    cy = np.empty(max_n)
    for i in order:
        x, y = float(xs[i]), float(ys[i])
        k = len(chosen)
        if k and np.min((cx[:k] - x) ** 2 + (cy[:k] - y) ** 2) < min_dist_sq:
            continue
        cx[k], cy[k] = x, y
        chosen.append(i)
        if len(chosen) == max_n:
            break
    return np.column_stack((xs[chosen], ys[chosen], scores[chosen]))
