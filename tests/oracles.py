"""Independent reference implementations used as test oracles.

These are deliberately written in the most literal, slow style possible —
plain Python floats, per-pixel loops — so they share no code paths with the
package under test. The exceptions are ``MaskedRowGmm``, the Gaussian
mixture as one ``where=``-masked pass per rank row over every pixel, whose
masks and state ``bgmodel.BackgroundModel`` must reproduce bit for bit
(``ScalarGmmOracle`` agrees with them only to the last bits);
``track_point``, which tracks one
point at a time with the same numpy window arithmetic as
``lkflow.track_points``; ``smooth_separable_roll``, which smooths with the
same taps in the same order as ``lkflow.build_pyramid``;
``resize_bilinear_ix``, the float64 fancy-index form of
``frameio.resize_bilinear``; ``tokenize_header_bytewise``, the byte loop
that ``frameio._tokenize_header`` replaced with one pattern per field,
which converts each field with the package's own ``_decimal``;
``rprop_step``, the per-layer masked form of ``mlp.rprop_step``;
``save_model_per_value``, the per-value form of ``mlp.save_model``;
``flow_jacobian_per_axis``, the per-axis form of ``flowdesc.flow_jacobian``
with the same numpy arithmetic, which also checks a one-sided difference's
centre;
``track_step_one_call``, the flow step that tracks each point with its
Jacobian probes in one call over every level, whose kept mask, positions,
velocities and intensities ``pipeline._track_step`` must reproduce (its
invariants come from probes tracked at level 0 only);
``extract_window_sample``, which extracts one window
per tracker call, the reference for the batched
``pipeline.sequence_samples``; ``sequence_samples_list``, which holds every
frame and groups the windows of the whole list, the reference for the
streamed ``pipeline.sequence_samples``; and ``window_sample_loop``, which builds a
window's sample from per-slot, per-step ``PointDescriptor`` records on the
package's own detector and flow step. The package must reproduce all
of them exactly. ``structure_tensor_at`` and ``min_eigenvalue`` give one pixel of
``goodfeat.min_eigenvalue_map``, which must match them within 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from harpipe.config import PipelineConfig
from harpipe.lkflow import MIN_EIGEN_PER_PIXEL, TrackStatus


class ScalarGmmOracle:
    """Straight-line single-pixel Gaussian-mixture reference.

    Components are (weight, mean, variance) tuples kept sorted by descending
    weight/sqrt(variance). step() returns True when the pixel is classified
    foreground for that input.
    """

    def __init__(self, k, alpha, t, match_radius, initial_variance,
                 variance_floor):
        self.k = k
        self.alpha = alpha
        self.t = t
        self.match_radius = match_radius
        self.initial_variance = initial_variance
        self.variance_floor = variance_floor
        self.components: list[list[float]] = []

    def step(self, x: float) -> bool:
        x = float(x)
        if not self.components:
            self.components = [[1.0, x, self.initial_variance]]
            for _ in range(self.k - 1):
                self.components.append([0.0, x, self.initial_variance])
            return False

        matched = None
        for i, (w, mu, var) in enumerate(self.components):
            if abs(x - mu) <= self.match_radius * math.sqrt(var):
                matched = i
                break

        if matched is not None:
            for i in range(self.k):
                self.components[i][0] *= 1.0 - self.alpha
            self.components[matched][0] += self.alpha
            w, mu, var = self.components[matched]
            rho = self.alpha / w
            mu = (1.0 - rho) * mu + rho * x
            var = (1.0 - rho) * var + rho * (x - mu) ** 2
            self.components[matched][1] = mu
            self.components[matched][2] = var
        else:
            self.components[-1] = [self.alpha, x, self.initial_variance]
            total = sum(c[0] for c in self.components)
            for c in self.components:
                c[0] /= total

        for c in self.components:
            if c[2] < self.variance_floor:
                c[2] = self.variance_floor

        order = sorted(
            range(self.k),
            key=lambda i: -self.components[i][0] / math.sqrt(self.components[i][2]),
        )
        self.components = [self.components[i] for i in order]

        if matched is None:
            return True
        pos = order.index(matched)
        cum = 0.0
        prefix_len = self.k
        for i, c in enumerate(self.components):
            cum += c[0]
            if cum >= self.t:
                prefix_len = i + 1
                break
        return pos >= prefix_len


def gmm_oracle(cfg: PipelineConfig) -> ScalarGmmOracle:
    """A scalar GMM with the ``gmm_*`` settings of ``cfg``."""
    return ScalarGmmOracle(
        k=cfg.gmm_components, alpha=cfg.gmm_alpha, t=cfg.gmm_threshold,
        match_radius=cfg.gmm_match_radius,
        initial_variance=cfg.gmm_initial_variance,
        variance_floor=cfg.gmm_variance_floor)


class MaskedRowGmm:
    """``bgmodel.BackgroundModel`` as a loop over the K rank rows in which
    every step covers a whole row in place, masked with ``where=``. The
    bit-exact reference for the model's update: the same state layout and
    the same arithmetic on every matched lane."""

    def __init__(self, cfg: PipelineConfig, shape: tuple[int, int]):
        import numpy as np

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
        import numpy as np

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


def brute_force_good_features(pixels, cfg: PipelineConfig):
    """Literal per-pixel reimplementation of the corner detector, with the
    detector settings of ``cfg``.

    Returns (x, y, score) tuples in the same order as detect_good_features.
    """
    h = len(pixels)
    w = len(pixels[0])
    img = [[float(v) for v in row] for row in pixels]

    ix = [[0.0] * w for _ in range(h)]
    iy = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(1, w - 1):
            ix[y][x] = (img[y][x + 1] - img[y][x - 1]) / 2.0
    for y in range(1, h - 1):
        for x in range(w):
            iy[y][x] = (img[y + 1][x] - img[y - 1][x]) / 2.0

    hw = cfg.tensor_half_window
    lam = [[0.0] * w for _ in range(h)]
    for y in range(hw, h - hw):
        for x in range(hw, w - hw):
            zxx = zxy = zyy = 0.0
            for dy in range(-hw, hw + 1):
                for dx in range(-hw, hw + 1):
                    gx = ix[y + dy][x + dx]
                    gy = iy[y + dy][x + dx]
                    zxx += gx * gx
                    zxy += gx * gy
                    zyy += gy * gy
            disc = math.sqrt((zxx - zyy) ** 2 + 4.0 * zxy * zxy)
            lam[y][x] = max(0.0, (zxx + zyy - disc) / 2.0)

    lam_max = max(max(row) for row in lam)
    if lam_max <= 0.0:
        return []
    threshold = cfg.quality_rel * lam_max

    candidates = []
    for y in range(h):
        for x in range(w):
            if lam[y][x] < threshold:
                continue
            is_max = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and lam[y][x] < lam[ny][nx]:
                        is_max = False
            if is_max:
                candidates.append((x, y, lam[y][x]))

    candidates.sort(key=lambda c: (-c[2], c[1], c[0]))

    chosen = []
    for x, y, s in candidates:
        ok = True
        for cx, cy, _ in chosen:
            if (cx - x) ** 2 + (cy - y) ** 2 < cfg.min_distance ** 2:
                ok = False
                break
        if ok:
            chosen.append((float(x), float(y), s))
            if len(chosen) == cfg.feature_size:
                break
    return chosen


def smooth_texture(rng, width, height, passes=2, lo=0, hi=255):
    """Band-limited random texture as a list of uint8-range int rows; shared
    helper for flow tests (smooth enough to survive pyramid decimation)."""
    import numpy as np

    noise = rng.uniform(0.0, 1.0, size=(height, width))
    for _ in range(passes):
        noise = (
            noise
            + np.roll(noise, 1, 0) + np.roll(noise, -1, 0)
            + np.roll(noise, 1, 1) + np.roll(noise, -1, 1)
        ) / 5.0
    span = noise.max() - noise.min()
    out = lo + (hi - lo) * (noise - noise.min()) / span
    return np.floor(out + 0.5).astype(np.uint8)


def smooth_separable_roll(img):
    """5-tap binomial smoothing of an edge-padded image, one whole-array
    ``np.roll`` copy per tap: the reference for ``lkflow.build_pyramid``'s
    low-pass step. An integer image is smoothed in float64."""
    import numpy as np

    from harpipe.lkflow import SMOOTH_KERNEL

    padded = np.pad(img, 2, mode="edge")
    tmp = np.zeros(padded.shape)
    for i, c in enumerate(SMOOTH_KERNEL):
        tmp += c * np.roll(padded, 2 - i, axis=1)
    out = np.zeros(padded.shape)
    for i, c in enumerate(SMOOTH_KERNEL):
        out += c * np.roll(tmp, 2 - i, axis=0)
    return out[2:-2, 2:-2]


@dataclass(frozen=True)
class TrackResult:
    new_x: float
    new_y: float
    dx: float
    dy: float
    residual: float
    status: TrackStatus

    @property
    def tracked(self) -> bool:
        return self.status is TrackStatus.TRACKED


def sample_window(img, cx, cy, hw):
    """Bilinear (2hw+1)^2 window around (cx, cy), clamped at the borders."""
    import numpy as np

    h, w = img.shape
    # unit-spaced sample grid: one shared fractional offset, so an interior
    # window is four shifted slices of a contiguous region
    x0 = int(np.floor(cx - hw))
    y0 = int(np.floor(cy - hw))
    n = 2 * hw + 1
    if 0 <= x0 and x0 + n < w and 0 <= y0 and y0 + n < h:
        fx = cx - hw - x0
        fy = cy - hw - y0
        r = img[y0 : y0 + n + 1, x0 : x0 + n + 1]
        top = r[:-1, :-1] * (1 - fx) + r[:-1, 1:] * fx
        bot = r[1:, :-1] * (1 - fx) + r[1:, 1:] * fx
        return top * (1 - fy) + bot * fy
    xs = np.clip(cx + np.arange(-hw, hw + 1, dtype=np.float64), 0.0, w - 1.0)
    ys = np.clip(cy + np.arange(-hw, hw + 1, dtype=np.float64), 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = (ys - y0)[:, None]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bot = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def track_point(pi, pj, x, y, cfg: PipelineConfig):
    """One point at a time through the pyramids: the scalar reference for
    ``lkflow.track_points``."""
    import numpy as np

    hw = cfg.track_half_window
    eigen_floor = MIN_EIGEN_PER_PIXEL * (2 * hw + 1) ** 2
    h0, w0 = pi[0].shape

    def lost(status):
        return TrackResult(x, y, 0.0, 0.0, np.inf, status)

    if not (hw <= x <= w0 - 1 - hw and hw <= y <= h0 - 1 - hw):
        return lost(TrackStatus.LOST_BOUNDS)

    n_levels = min(len(pi), len(pj))
    gx = gy = 0.0  # running guess, in the current level's pixels
    dx = dy = 0.0
    for level in reversed(range(n_levels)):
        imgi = pi[level]
        imgj = pj[level]
        lh, lw = imgi.shape
        px = x / (1 << level)
        py = y / (1 << level)

        # one (2hw+3)^2 window yields the template and both gradient windows
        big = sample_window(imgi, px, py, hw + 1)
        iw = big[1:-1, 1:-1]
        grad_x = (big[1:-1, 2:] - big[1:-1, :-2]) / 2.0
        grad_y = (big[2:, 1:-1] - big[:-2, 1:-1]) / 2.0
        zxx = float((grad_x * grad_x).sum())
        zxy = float((grad_x * grad_y).sum())
        zyy = float((grad_y * grad_y).sum())
        det = zxx * zyy - zxy * zxy
        lam_min = (zxx + zyy - np.sqrt((zxx - zyy) ** 2 + 4 * zxy**2)) / 2.0
        if lam_min < eigen_floor or det <= 0.0:
            return lost(TrackStatus.LOST_SINGULAR)

        dx = dy = 0.0
        for _ in range(cfg.track_max_iterations):
            qx = px + gx + dx
            qy = py + gy + dy
            if not (0.0 <= qx <= lw - 1 and 0.0 <= qy <= lh - 1):
                return lost(TrackStatus.LOST_BOUNDS)
            diff = iw - sample_window(imgj, qx, qy, hw)
            ex = float((diff * grad_x).sum())
            ey = float((diff * grad_y).sum())
            sx = (zyy * ex - zxy * ey) / det
            sy = (zxx * ey - zxy * ex) / det
            dx += sx
            dy += sy
            if sx * sx + sy * sy < cfg.track_convergence_eps**2:
                break
        if level > 0:
            gx = 2.0 * (gx + dx)
            gy = 2.0 * (gy + dy)

    tx = gx + dx
    ty = gy + dy
    nx = x + tx
    ny = y + ty
    if not (hw <= nx <= w0 - 1 - hw and hw <= ny <= h0 - 1 - hw):
        return lost(TrackStatus.LOST_BOUNDS)
    iw = sample_window(pi[0], x, y, hw)
    jw = sample_window(pj[0], nx, ny, hw)
    residual = float(np.sqrt(np.mean((iw - jw) ** 2)))
    status = (
        TrackStatus.TRACKED
        if residual <= cfg.track_residual_max
        else TrackStatus.LOST_RESIDUAL
    )
    return TrackResult(nx, ny, tx, ty, residual, status)


def resize_bilinear_ix(pixels, out_w, out_h):
    """Pixel-centre bilinear resize on the whole (h, w) image converted to
    float64, four ``np.ix_`` gathers: the reference for
    ``frameio.resize_bilinear``."""
    import numpy as np

    height, width = pixels.shape
    if (out_w, out_h) == (width, height):
        return pixels.copy()
    src = pixels.astype(np.float64)
    sx = width / out_w
    sy = height / out_h
    xs = np.clip((np.arange(out_w) + 0.5) * sx - 0.5, 0.0, width - 1.0)
    ys = np.clip((np.arange(out_h) + 0.5) * sy - 0.5, 0.0, height - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = xs - x0
    fy = ys - y0
    top = src[np.ix_(y0, x0)] * (1 - fx) + src[np.ix_(y0, x1)] * fx
    bot = src[np.ix_(y1, x0)] * (1 - fx) + src[np.ix_(y1, x1)] * fx
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    out = np.clip(np.floor(out + 0.5), 0, 255)
    return out.astype(np.uint8)


def tokenize_header_bytewise(data, n_tokens):
    """Header fields read one byte at a time, as ``frameio._tokenize_header``
    reads them with one pattern per field: the same values and payload
    offset, or the same PnmError message."""
    from harpipe.frameio import PnmError, _decimal

    tokens = []
    i = 2  # past the 2-byte magic
    n = len(data)
    while len(tokens) < n_tokens:
        while i < n and (data[i : i + 1].isspace() or data[i] == ord("#")):
            if data[i] == ord("#"):
                while i < n and data[i] not in (10, 13):
                    i += 1
            else:
                i += 1
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise PnmError("header ended before all fields were read")
        tok = data[start:i]
        if not tok.isdigit():
            raise PnmError(f"non-numeric header field {tok!r}")
        tokens.append(_decimal(tok))
    if i >= n:
        raise PnmError("no pixel data after header")
    return tokens, i + 1


@dataclass
class RpropLayerState:
    """Per-layer RPROP state as separate arrays, for ``rprop_step``."""

    step_w: list
    step_b: list
    prev_grad_w: list
    prev_grad_b: list
    eta_plus: float = 1.2
    eta_minus: float = 0.5
    step_init: float = 0.1
    step_min: float = 1e-6
    step_max: float = 50.0


def init_rprop(m, **hyper):
    import numpy as np

    state = RpropLayerState(
        step_w=[],
        step_b=[],
        prev_grad_w=[np.zeros_like(w) for w in m.weights],
        prev_grad_b=[np.zeros_like(b) for b in m.biases],
        **hyper,
    )
    state.step_w = [np.full_like(w, state.step_init) for w in m.weights]
    state.step_b = [np.full_like(b, state.step_init) for b in m.biases]
    return state


def _rprop_update(w, g, g_prev, step, s):
    import numpy as np

    sign_prod = g * g_prev
    grew = sign_prod > 0
    flipped = sign_prod < 0
    step[grew] = np.minimum(step[grew] * s.eta_plus, s.step_max)
    step[flipped] = np.maximum(step[flipped] * s.eta_minus, s.step_min)
    w -= np.sign(g) * step
    # a flipped gradient is zeroed so the next sign test sees no direction
    g_next = g.copy()
    g_next[flipped] = 0.0
    return g_next


def rprop_step(m, grads_w, grads_b, s):
    """One RPROP- update, one layer's weights and then its biases at a time,
    with boolean gathers and scatters: the reference for ``mlp.rprop_step``."""
    for layer in range(len(m.weights)):
        s.prev_grad_w[layer] = _rprop_update(
            m.weights[layer], grads_w[layer], s.prev_grad_w[layer],
            s.step_w[layer], s,
        )
        s.prev_grad_b[layer] = _rprop_update(
            m.biases[layer], grads_b[layer], s.prev_grad_b[layer],
            s.step_b[layer], s,
        )


def save_model_per_value(m, path):
    """``mlp.save_model`` formatting one ``repr(float(v))`` at a time."""
    def fmt(vec):
        return " ".join(repr(float(v)) for v in vec)

    with open(path, "w") as fh:
        fh.write("harmlp 1\n")
        fh.write(" ".join(str(s) for s in m.layer_sizes) + "\n")
        fh.write(f"{m.a!r} {m.beta!r}\n")
        fh.write(fmt(m.input_mean) + "\n")
        fh.write(fmt(m.input_std) + "\n")
        for w, b in zip(m.weights, m.biases):
            for row in w:
                fh.write(fmt(row) + "\n")
            fh.write(fmt(b) + "\n")


@dataclass(frozen=True)
class StructureTensor:
    zxx: float
    zxy: float
    zyy: float


def structure_tensor_at(ix, iy, x, y, half_window):
    """Windowed sums of gradient outer products at one pixel: the reference
    for one pixel of ``goodfeat.min_eigenvalue_map``."""
    h = half_window
    if x - h < 0 or y - h < 0 or x + h >= ix.shape[1] or y + h >= ix.shape[0]:
        raise ValueError("tensor window out of bounds")
    wx = ix[y - h : y + h + 1, x - h : x + h + 1]
    wy = iy[y - h : y + h + 1, x - h : x + h + 1]
    return StructureTensor(
        float((wx * wx).sum()), float((wx * wy).sum()), float((wy * wy).sum())
    )


def min_eigenvalue(z):
    disc = math.sqrt((z.zxx - z.zyy) ** 2 + 4.0 * z.zxy**2)
    return max(0.0, (z.zxx + z.zyy - disc) / 2.0)


def flow_jacobian_per_axis(uv, tracked, h):
    """Spatial flow partials of P points from the (P, 5, 2) velocities at
    their ``jacobian_probes`` and the (P, 5) mask of the probes that were
    tracked; the velocities of the others are ignored.

    Each axis takes the central difference of its probes at p +- h, or the
    one-sided difference against the point itself when one of them failed.
    Returns the (P, 2, 2) Jacobians [[u_x, u_y], [v_x, v_y]] and the (P,)
    mask of points whose neighbourhood was trackable; the partials of the
    other points are zero.
    """
    import numpy as np

    centre = uv[:, 0]

    def axis_diff(k: int) -> tuple[np.ndarray, np.ndarray]:
        fwd, bwd = uv[:, k], uv[:, k + 1]
        has_fwd, has_bwd = tracked[:, k], tracked[:, k + 1]
        both = (has_fwd & has_bwd)[:, None]
        one_sided = np.where(
            has_fwd[:, None], (fwd - centre) / h, -(bwd - centre) / h
        )
        diff = np.where(both, (fwd - bwd) / (2 * h), one_sided)
        usable = (has_fwd & has_bwd) | ((has_fwd | has_bwd) & tracked[:, 0])
        return diff, usable

    dx, x_ok = axis_diff(1)
    dy, y_ok = axis_diff(3)
    ok = x_ok & y_ok
    return np.where(ok[:, None, None], np.stack((dx, dy), axis=2), 0.0), ok


def track_step_one_call(pi, pj, xy, image, cfg):
    """``pipeline._track_step`` in one tracker call: each point and its four
    Jacobian probes tracked together over every pyramid level, each from
    zero displacement. The reference for the two-call step, whose kept
    mask, new positions, velocities and intensities must equal these bit
    for bit; only the invariants, read from the probes, differ."""
    import numpy as np

    from harpipe import flowdesc, lkflow

    h = cfg.jacobian_probe_offset
    probes = flowdesc.jacobian_probes(xy, h)
    tracks = lkflow.track_points(pi, pj, probes.reshape(-1, 2), cfg,
                                 np.repeat(image, probes.shape[1]))
    tracked = tracks.tracked.reshape(probes.shape[:2])
    kept = tracked[:, 0]
    uv = (tracks.dxy / cfg.flow_step).reshape(probes.shape)[kept]
    jac, _ = flowdesc.flow_jacobian(uv, tracked[kept], h)
    new_xy = tracks.xy.reshape(probes.shape)[kept, 0]
    intensity = lkflow.sample_windows(pj[0], new_xy, 0, image[kept])[0, 0]
    return kept, new_xy, uv[:, 0], flowdesc.flow_invariants(jac), intensity


@dataclass(frozen=True)
class PointDescriptor:
    x: float
    y: float
    t: float
    i_t: float
    u: float
    v: float
    u_t: float
    v_t: float
    div: float
    vor: float
    g_ten: float
    s_ten: float

    def to_array(self):
        import numpy as np

        return np.array([
            self.x, self.y, self.t, self.i_t, self.u, self.v,
            self.u_t, self.v_t, self.div, self.vor, self.g_ten, self.s_ten,
        ])


def temporal_derivatives(prev_uv, cur_uv, i_prev, i_cur, frame_step):
    """(I_t, u_t, v_t); the first step of a window has no history so the
    velocity derivatives are zero there."""
    i_t = (i_cur - i_prev) / frame_step
    if prev_uv is None:
        return i_t, 0.0, 0.0
    return (
        i_t,
        (cur_uv[0] - prev_uv[0]) / frame_step,
        (cur_uv[1] - prev_uv[1]) / frame_step,
    )


def assemble_descriptor(x, y, frame_width, frame_height, step_index,
                        steps_per_window, i_t, uv, ut_vt, invariants):
    t = 0.0 if steps_per_window <= 1 else step_index / (steps_per_window - 1)
    return PointDescriptor(
        x=x / frame_width, y=y / frame_height, t=t, i_t=i_t,
        u=uv[0], v=uv[1], u_t=ut_vt[0], v_t=ut_vt[1],
        div=invariants[0], vor=invariants[1],
        g_ten=invariants[2], s_ten=invariants[3],
    )


def aggregate_sample(slot_descriptors, n_slots, steps_per_window):
    """Mean descriptor per point slot as a stacked list, zero-padded to
    exactly n_slots slots; a slot tracked for half the steps or fewer is
    zeroed."""
    import numpy as np

    from harpipe.flowdesc import DESCRIPTOR_DIM

    if steps_per_window < 1:
        raise ValueError("window must contain at least one flow step")
    values = np.zeros(n_slots * DESCRIPTOR_DIM)
    for k, descs in enumerate(slot_descriptors[:n_slots]):
        if 2 * len(descs) <= steps_per_window:
            continue
        stack = np.stack([d.to_array() for d in descs])
        values[k * DESCRIPTOR_DIM : (k + 1) * DESCRIPTOR_DIM] = stack.mean(axis=0)
    return values


def extract_window_sample(frames, cfg, label=None):
    """One window's sample, one window per tracker call: the reference for
    the batched ``pipeline.sequence_samples``, which must give each window
    exactly this sample.

    Features are detected on the first frame and tracked at every
    flow_step-th frame by ``pipeline._track_step``; each step fills and
    marks its tracked slots' rows of the (slots, steps, 12) descriptor table.
    The table is summed over the steps by one numpy reduction, an independent
    reference for the pipeline's running sums, and ``flowdesc.pool_window``
    averages the sums.
    """
    import numpy as np

    from harpipe import flowdesc, goodfeat, lkflow, pipeline
    from harpipe.flowdesc import SampleVector

    if not frames:
        raise ValueError("empty window")
    steps = (len(frames) - 1) // cfg.flow_step
    n = cfg.feature_size
    if steps < 1:
        return SampleVector(np.zeros(n * flowdesc.DESCRIPTOR_DIM), label=label)

    xy = goodfeat.detect_good_features(frames[0].pixels, cfg)[:, :2].copy()
    alive = np.ones(len(xy), dtype=bool)
    prev_uv = np.zeros_like(xy)
    table = np.zeros((n, steps, flowdesc.DESCRIPTOR_DIM))
    tracked = np.zeros((n, steps), dtype=bool)
    frame_size = (frames[0].width, frames[0].height)

    pi = lkflow.build_pyramid(frames[0].pixels, cfg.pyramid_levels)
    intensity = lkflow.sample_windows(pi[0], xy, 0, np.zeros(len(xy), np.intp))[0, 0]
    for step in range(steps):
        live = np.flatnonzero(alive)
        if live.size == 0:
            break
        pj = lkflow.build_pyramid(
            frames[(step + 1) * cfg.flow_step].pixels, cfg.pyramid_levels
        )
        kept, new_xy, uv, invariants, cur_intensity = pipeline._track_step(
            pi, pj, xy[live], np.zeros(live.size, dtype=np.intp), cfg)
        alive[live[~kept]] = False
        live = live[kept]
        # the first step has no velocity history, so u_t = v_t = 0 there
        uv_t = (uv - prev_uv[live]) / cfg.flow_step if step else np.zeros_like(uv)
        i_t = (cur_intensity - intensity[live]) / cfg.flow_step
        table[live, step] = flowdesc.point_descriptors(
            xy[live], frame_size, step, steps, i_t, uv, uv_t, invariants,
        )
        tracked[live, step] = True
        xy[live] = new_xy
        prev_uv[live] = uv
        intensity[live] = cur_intensity
        pi = pj

    # the untracked rows hold +0.0, which changes no sum that starts at +0.0
    # as numpy's does
    return SampleVector(
        flowdesc.pool_window(table.sum(axis=1), tracked.sum(axis=1), steps),
        label=label)


def window_starts(n_frames, cfg):
    """The start frames of the full windows of an ``n_frames`` sequence."""
    return list(range(0, n_frames - cfg.window_frames + 1, cfg.stride))


def sequence_samples_list(frames, cfg):
    """(window start, values) for each full window, with every frame held in
    one list and the windows of ``window_starts`` over the whole list taken
    ``WINDOWS_PER_CALL`` at a time: the groups that the streamed
    ``pipeline.sequence_samples`` must reproduce."""
    from harpipe import pipeline

    pixels = [f.pixels for f in frames]
    starts = window_starts(len(pixels), cfg)
    out = []
    for g in range(0, len(starts), pipeline.WINDOWS_PER_CALL):
        group = starts[g : g + pipeline.WINDOWS_PER_CALL]
        out += zip(group, pipeline._window_samples(pixels, group, cfg))
    return out


def window_sample_loop(frames, cfg):
    """``extract_window_sample``'s values, built one slot and one
    step at a time from ``PointDescriptor`` records and pooled by
    ``aggregate_sample``. Detection and each flow step
    (``pipeline._track_step``) are the package's own, so this is the
    reference for the descriptors' per-slot sums and their mean only."""
    import numpy as np

    from harpipe import flowdesc, goodfeat, lkflow, pipeline

    steps = (len(frames) - 1) // cfg.flow_step
    n = cfg.feature_size
    if steps < 1:
        return np.zeros(n * flowdesc.DESCRIPTOR_DIM)
    points = goodfeat.detect_good_features(frames[0].pixels, cfg)
    xy = points[:, :2].copy()
    alive = np.ones(len(xy), dtype=bool)
    descriptors = [[] for _ in points]
    prev_uv = np.zeros_like(xy)

    pi = lkflow.build_pyramid(frames[0].pixels, cfg.pyramid_levels)
    intensity = lkflow.sample_windows(pi[0], xy, 0, np.zeros(len(xy), np.intp))[0, 0]
    for step in range(steps):
        live = np.flatnonzero(alive)
        if live.size == 0:
            break
        pj = lkflow.build_pyramid(
            frames[(step + 1) * cfg.flow_step].pixels, cfg.pyramid_levels
        )
        kept, new_xy, uv, invariants, cur_intensity = pipeline._track_step(
            pi, pj, xy[live], np.zeros(live.size, dtype=np.intp), cfg)
        alive[live[~kept]] = False
        live = live[kept]
        invariants = np.column_stack(invariants)

        for k, slot in enumerate(live):
            slot_uv = (uv[k, 0], uv[k, 1])
            i_t, u_t, v_t = temporal_derivatives(
                (prev_uv[slot, 0], prev_uv[slot, 1]) if step else None,
                slot_uv, intensity[slot], cur_intensity[k], cfg.flow_step,
            )
            descriptors[slot].append(assemble_descriptor(
                xy[slot, 0], xy[slot, 1], frames[0].width, frames[0].height,
                step, steps, i_t, slot_uv, (u_t, v_t), tuple(invariants[k]),
            ))
        xy[live] = new_xy
        prev_uv[live] = uv
        intensity[live] = cur_intensity
        pi = pj

    return aggregate_sample(descriptors, n, steps)
