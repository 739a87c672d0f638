"""Seeded synthetic 4-class corpus: textured patches moving over a textured
background, written as PGM frame sequences.

walking  - patch translating at ~1 px/frame (wraps horizontally)
running  - same at ~3 px/frame
boxing   - a fist patch oscillating horizontally, period 10 frames
clapping - two patches converging/diverging, period 16 frames
"""

from __future__ import annotations

import os

import numpy as np

from .frameio import Frame, encode_pgm
from .mlp import ACTION_LABELS

WIDTH, HEIGHT = 160, 120
FRAMES_PER_SEQUENCE = 75
TRAIN_PER_CLASS = 20
TEST_PER_CLASS = 10


def _background(rng: np.random.Generator) -> np.ndarray:
    """Low-contrast static texture so corners concentrate on the patches."""
    noise = rng.uniform(0.0, 1.0, size=(HEIGHT, WIDTH))
    # cheap smoothing keeps residual corner strength low
    for _ in range(2):
        noise = (
            noise
            + np.roll(noise, 1, 0) + np.roll(noise, -1, 0)
            + np.roll(noise, 1, 1) + np.roll(noise, -1, 1)
        ) / 5.0
    lo, hi = noise.min(), noise.max()
    return 90.0 + 20.0 * (noise - lo) / (hi - lo)


def _patch(rng: np.random.Generator, h: int, w: int, cell: int = 4,
           lo: float = 0.0, hi: float = 255.0) -> np.ndarray:
    """Blocky texture; finer cells and wider range give stronger corners."""
    cells = rng.uniform(lo, hi, size=((h + cell - 1) // cell,
                                      (w + cell - 1) // cell))
    return np.kron(cells, np.ones((cell, cell)))[:h, :w]


def _paste(canvas: np.ndarray, patch: np.ndarray, x: int, y: int) -> None:
    h, w = patch.shape
    x %= WIDTH
    for ox in (x, x - WIDTH):  # horizontal wrap
        x0, x1 = max(ox, 0), min(ox + w, WIDTH)
        y0, y1 = max(y, 0), min(y + h, HEIGHT)
        if x0 < x1 and y0 < y1:
            canvas[y0:y1, x0:x1] = patch[y0 - y : y1 - y, x0 - ox : x1 - ox]


def _render(bg: np.ndarray, patches: list[tuple[np.ndarray, int, int]],
            noise_sigma: float, rng: np.random.Generator) -> np.ndarray:
    canvas = bg.copy()
    for patch, x, y in patches:
        _paste(canvas, patch, x, y)
    if noise_sigma > 0:
        canvas = canvas + rng.normal(0.0, noise_sigma, canvas.shape)
    return np.clip(np.floor(canvas + 0.5), 0, 255).astype(np.uint8)


def generate_sequence(label: str, rng: np.random.Generator) -> list[np.ndarray]:
    bg = _background(rng)
    jitter = 1.0 + rng.uniform(-0.2, 0.2)  # speed jitter
    noise_sigma = rng.uniform(0.0, 1.0)
    y0 = int(rng.integers(25, HEIGHT - 60))
    frames = []

    if label in ("walking", "running"):
        speed = (1.0 if label == "walking" else 3.0) * jitter
        # large enough that the detector can fill every descriptor slot
        body = _patch(rng, 46, 32, cell=3)
        # walking fits a full pass in frame; running wraps once
        x0 = int(rng.integers(10, 35))
        for t in range(FRAMES_PER_SEQUENCE):
            x = int(round(x0 + speed * t))
            frames.append(_render(bg, [(body, x, y0)], noise_sigma, rng))
    elif label == "boxing":
        # weakly textured body so the oscillating fist owns the corners
        x0 = int(rng.integers(20, WIDTH - 80))
        body = _patch(rng, 36, 24, cell=12, lo=60.0, hi=160.0)
        fist = _patch(rng, 28, 24, cell=3)
        amp = 2.0 * jitter
        for t in range(FRAMES_PER_SEQUENCE):
            off = int(round(amp * np.sin(2.0 * np.pi * t / 10.0)))
            frames.append(
                _render(bg, [(body, x0, y0), (fist, x0 + 28 + off, y0 + 8)],
                        noise_sigma, rng)
            )
    elif label == "clapping":
        x0 = int(rng.integers(45, WIDTH - 45))
        # contrast split keeps detection-score ordering stable: left slots first
        left = _patch(rng, 30, 22, cell=3)
        right = _patch(rng, 30, 22, cell=3, lo=48.0, hi=208.0)
        amp = 7.0 * jitter
        for t in range(FRAMES_PER_SEQUENCE):
            gap = int(round(12 + amp * (1 + np.cos(2.0 * np.pi * t / 16.0)) / 2.0))
            frames.append(
                _render(bg,
                        [(left, x0 - gap - left.shape[1], y0), (right, x0 + gap, y0)],
                        noise_sigma, rng)
            )
    else:
        raise ValueError(f"unknown class {label!r}")
    return frames


def write_corpus(out_dir: str, seed: int,
                 train_per_class: int = TRAIN_PER_CLASS,
                 test_per_class: int = TEST_PER_CLASS) -> dict[str, int]:
    """Write out_dir/{train,test}/<class>/seq_NNN/frame_NNN.pgm; returns
    the per-split sequence counts."""
    rng = np.random.default_rng(seed)
    counts = {"train": 0, "test": 0}
    for label in ACTION_LABELS:
        for split, n in (("train", train_per_class), ("test", test_per_class)):
            for s in range(n):
                seq_dir = os.path.join(out_dir, split, label, f"seq_{s:03d}")
                os.makedirs(seq_dir, exist_ok=True)
                for i, pixels in enumerate(generate_sequence(label, rng)):
                    frame = Frame(WIDTH, HEIGHT, i, pixels)
                    path = os.path.join(seq_dir, f"frame_{i:03d}.pgm")
                    with open(path, "wb") as fh:
                        fh.write(encode_pgm(frame))
                counts[split] += 1
    return counts
