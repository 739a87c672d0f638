"""Per-pixel adaptive Gaussian-mixture background model (Stauffer & Grimson 1999).

Each pixel keeps K Gaussian components (weight, mean, variance) sorted by
descending fitness w/sqrt(var). A frame update matches each pixel against its
components, adapts the matched one, replaces the weakest when nothing matches,
and labels the pixel background iff its matched component falls inside the
smallest prefix whose cumulative weight reaches the threshold T.

The state is three (K, H*W) arrays, one row per fitness rank. An update is a
loop over the K rows in which every step covers a whole row at once, in place
and masked with ``where=``, using buffers allocated with the model: a frame
allocates nothing frame-sized except its mask. The re-sort is a stable
adjacent-swap network over the rows.
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
        self._rows = np.zeros((5, n))
        self._flags = np.empty((3, n), dtype=bool)
        # rank of each pixel's matched component; k when nothing matched
        self._pos = np.empty(n, dtype=np.min_scalar_type(k))

    def update_and_classify(self, pixels: np.ndarray) -> np.ndarray:
        """Update the model with one frame's (height, width) pixels; returns
        its bool mask of that shape, True = foreground."""
        if pixels.shape != self.shape:
            raise ValueError("frame dimensions do not match the model")
        w, mu, var = self.weights, self.means, self.variances
        cfg = self.cfg
        k, a = cfg.gmm_components, cfg.gmm_alpha
        x, s, d, rho, keep = self._rows
        hit, aux, swap = self._flags
        pos = self._pos
        np.copyto(x, pixels.reshape(-1))

        if not self._seeded:
            # first frame seeds the dominant component at the observed value
            w[0] = 1.0
            mu[:] = x
            self._seeded = True
            return np.zeros(self.shape, dtype=bool)

        # components are fitness-sorted, so the first match is the best one:
        # scan from the last row so that earlier rows overwrite later ones
        pos.fill(k)
        for j in reversed(range(k)):
            np.sqrt(var[j], out=s)
            s *= cfg.gmm_match_radius
            np.subtract(x, mu[j], out=d)
            np.abs(d, out=d)
            np.less_equal(d, s, out=hit)
            np.copyto(pos, j, where=hit)

        np.less(pos, k, out=aux)
        np.multiply(w, 1.0 - a, out=w, where=aux)
        for j in range(k):
            np.equal(pos, j, out=hit)
            if not hit.any():
                continue
            wj, muj, varj = w[j], mu[j], var[j]
            np.add(wj, a, out=wj, where=hit)
            # rho only in the matched lanes; the rest of the row is computed
            # from the finite values left in the buffers and then dropped
            np.divide(a, wj, out=rho, where=hit)
            np.subtract(1.0, rho, out=keep)
            # mu = (1 - rho) * mu + rho * x
            np.multiply(keep, muj, out=s)
            np.multiply(rho, x, out=d)
            s += d
            # var = (1 - rho) * var + rho * (x - mu)**2, with the new mean
            np.subtract(x, s, out=d)
            np.square(d, out=d)
            d *= rho
            np.copyto(muj, s, where=hit)
            np.multiply(keep, varj, out=s)
            s += d
            np.copyto(varj, s, where=hit)

        np.equal(pos, k, out=aux)
        if aux.any():
            # no match: swap the weakest component for a fresh one, renormalize
            np.copyto(w[-1], a, where=aux)
            np.copyto(mu[-1], x, where=aux)
            np.copyto(var[-1], cfg.gmm_initial_variance, where=aux)
            np.copyto(s, w[0], where=aux)
            for j in range(1, k):
                np.add(s, w[j], out=s, where=aux)
            np.divide(w, s, out=w, where=aux)

        np.maximum(var, cfg.gmm_variance_floor, out=var)

        # stable re-sort by descending fitness: bubble passes of adjacent
        # swaps, carrying the matched component's rank along
        fit = self._fit
        np.sqrt(var, out=fit)
        np.divide(w, fit, out=fit)
        for last in range(k - 1, 0, -1):
            for i in range(last):
                np.less(fit[i], fit[i + 1], out=swap)
                if not swap.any():
                    continue
                for rows in (fit, w, mu, var):
                    np.copyto(s, rows[i])
                    np.copyto(rows[i], rows[i + 1], where=swap)
                    np.copyto(rows[i + 1], s, where=swap)
                np.equal(pos, i, out=hit)
                hit &= swap
                np.equal(pos, i + 1, out=aux)
                aux &= swap
                np.copyto(pos, i + 1, where=hit)
                np.copyto(pos, i, where=aux)

        # background iff the weight ranked before the match is still below t
        background = np.equal(pos, 0, out=hit)
        cum = s
        np.copyto(cum, w[0])
        for j in range(1, k):
            np.equal(pos, j, out=swap)
            np.less(cum, cfg.gmm_threshold, out=aux)
            aux &= swap
            background |= aux
            cum += w[j]
        return (~background).reshape(self.shape)

