"""Per-pixel adaptive Gaussian-mixture background model (Stauffer & Grimson 1999).

Each pixel keeps K Gaussian components (weight, mean, variance) sorted by
descending fitness w/sqrt(var). A frame update matches each pixel against its
components, adapts the matched one, replaces the weakest when nothing matches,
and labels the pixel background iff its matched component falls inside the
smallest prefix whose cumulative weight reaches the threshold T.

The state is three (K, H*W) arrays, one row per fitness rank. Nearly every
pixel matches at rank 0, so an update runs unmasked in-place ufuncs over whole
rows for the work that every pixel shares, and works on index lists for the
rest: the pixels that missed rank 0, and those whose components swap in the
re-sort, a stable adjacent-swap network over the rows.
"""

from __future__ import annotations

import numpy as np

from .config import PipelineConfig


class BackgroundModel:
    """A model of frames of the (height, width) ``shape`` with the ``gmm_*``
    settings of ``cfg``."""

    def __init__(self, cfg: PipelineConfig, shape: tuple[int, int]):
        self.cfg = cfg
        self.shape = tuple(shape)
        k, n = cfg.gmm_components, shape[0] * shape[1]
        # (k, height*width) component state, fitness-sorted per pixel
        self.weights = np.zeros((k, n))
        self.means = np.zeros((k, n))
        self.variances = np.full((k, n), cfg.gmm_initial_variance)
        self._seeded = False
        # per-frame work buffers, reused by every update
        self._fit = np.empty((k, n))
        self._rows = np.zeros((4, n))
        self._flags = np.empty(n, dtype=bool)

    def update_and_classify(self, pixels: np.ndarray) -> np.ndarray:
        """Update the model with one frame's (height, width) pixels; returns
        its bool mask of that shape, True = foreground."""
        if pixels.shape != self.shape:
            raise ValueError("frame dimensions do not match the model")
        w, mu, var = self.weights, self.means, self.variances
        cfg = self.cfg
        k, a, r = cfg.gmm_components, cfg.gmm_alpha, cfg.gmm_match_radius
        (x, d, rho, keep), flags = self._rows, self._flags
        np.copyto(x, pixels.reshape(-1))

        if not self._seeded:
            # first frame seeds the dominant component at the observed value
            w[0] = 1.0
            mu[:] = x
            self._seeded = True
            return np.zeros(self.shape, dtype=bool)

        # components are fitness-sorted, so the first match is the best one:
        # rank 0 on the whole row, then the lower ranks on the pixels it missed
        np.sqrt(var[0], out=keep)
        keep *= r
        np.subtract(x, mu[0], out=d)
        np.abs(d, out=d)
        np.greater(d, keep, out=flags)
        miss = np.flatnonzero(flags)
        xm = x[miss]
        # rank of each missed pixel's first match; k when nothing matched
        pm = np.full(miss.size, k, dtype=np.min_scalar_type(k))
        for j in reversed(range(1, k)):
            pm[np.abs(xm - mu[j][miss]) <= np.sqrt(var[j][miss]) * r] = j
        # pixels that matched nothing keep their weights until renormalized
        fresh = miss[pm == k]
        w_fresh = [row[fresh] for row in w]
        w *= 1.0 - a

        # rank 0 adapts on the whole row; the missed pixels' rank-0 state is
        # put back afterwards
        w0, mu0, var0 = w[0], mu[0], var[0]
        missed_rank0 = w0[miss], mu0[miss], var0[miss]
        w0 += a
        np.divide(a, w0, out=rho)
        np.subtract(1.0, rho, out=keep)
        # mu = (1 - rho) * mu + rho * x
        mu0 *= keep
        np.multiply(rho, x, out=d)
        mu0 += d
        # var = (1 - rho) * var + rho * (x - mu)**2, with the new mean
        np.subtract(x, mu0, out=d)
        np.square(d, out=d)
        d *= rho
        var0 *= keep
        var0 += d
        w0[miss], mu0[miss], var0[miss] = missed_rank0

        # the same adaptation at the lower ranks, on their matched pixels only
        for j in range(1, k):
            lanes = miss[pm == j]
            wj, muj, varj, xj = w[j], mu[j], var[j], x[lanes]
            wj[lanes] += a
            rho_j = a / wj[lanes]
            keep_j = 1.0 - rho_j
            muj[lanes] = keep_j * muj[lanes] + rho_j * xj
            dj = xj - muj[lanes]
            varj[lanes] = keep_j * varj[lanes] + dj * dj * rho_j

        # no match: swap the weakest component for a fresh one, renormalize
        w_fresh[-1] = a
        total = sum(w_fresh[1:], w_fresh[0])
        for row, wf in zip(w, w_fresh):
            row[fresh] = wf / total
        mu[-1][fresh], var[-1][fresh] = x[fresh], cfg.gmm_initial_variance

        np.maximum(var, cfg.gmm_variance_floor, out=var)

        # stable re-sort by descending fitness: bubble passes of adjacent
        # swaps, carrying the matched component's rank along
        pos = np.zeros(x.size, dtype=pm.dtype)
        pos[miss] = pm
        fit = np.sqrt(var, out=self._fit)
        np.divide(w, fit, out=fit)
        for last in range(k - 1, 0, -1):
            for i in range(last):
                np.less(fit[i], fit[i + 1], out=flags)
                lanes = np.flatnonzero(flags)
                for rows in (fit, w, mu, var):
                    lo, hi = rows[i], rows[i + 1]
                    lo[lanes], hi[lanes] = hi[lanes], lo[lanes]
                p = pos[lanes]
                pos[lanes] = np.where(p == i, i + 1, np.where(p == i + 1, i, p))

        # a match at rank 0 is background; one at rank j > 0 is background
        # iff the weight ranked before it, summed in rank order, is below t
        np.not_equal(pos, 0, out=flags)
        lanes = np.flatnonzero(flags)
        p = pos[lanes]
        foreground = p == k
        cum = w[0][lanes]
        for j in range(1, k):
            foreground |= (p == j) & (cum >= cfg.gmm_threshold)
            cum += w[j][lanes]
        mask = np.zeros(x.size, dtype=bool)
        mask[lanes] = foreground
        return mask.reshape(self.shape)
