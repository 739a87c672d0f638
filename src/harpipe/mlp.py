"""Feedforward MLP with a parametric tanh-shaped activation, exact reverse-mode
gradients, and resilient backpropagation (sign-based per-weight step sizes,
no weight backtracking)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import PipelineConfig

ACTION_LABELS = ("boxing", "clapping", "running", "walking")


def label_index(label: str) -> int:
    try:
        return ACTION_LABELS.index(label.lower())
    except ValueError:
        raise ValueError(f"unknown action label {label!r}") from None


def activation(x: np.ndarray | float, a: float, beta: float):
    """beta * (1 - e^{-ax}) / (1 + e^{-ax}), i.e. beta * tanh(ax/2)."""
    return beta * np.tanh(np.asarray(x, dtype=np.float64) * (a / 2.0))


def activation_derivative(fx: np.ndarray, a: float, beta: float) -> np.ndarray:
    """f'(u) expressed through f(u): (a/(2*beta)) * (beta^2 - f(u)^2)."""
    # beta * beta overflows to inf, where a Python float's beta**2 raises
    return (a / (2.0 * beta)) * (beta * beta - fx**2)


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]  # weights[l] has shape (out, in)
    biases: list[np.ndarray]
    a: float
    beta: float
    input_mean: np.ndarray
    input_std: np.ndarray

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.input_mean) / self.input_std


def init_model(
    layer_sizes: Sequence[int],
    seed: int,
    a: float = PipelineConfig.activation_a,
    beta: float = PipelineConfig.activation_beta,
) -> MlpModel:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases."""
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(list(layer_sizes), weights, biases, a, beta,
                    np.zeros(layer_sizes[0]), np.ones(layer_sizes[0]))


def forward(m: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer activations, [input, hidden..., output]; the activation is
    applied at every layer including the output. Accepts a single vector or
    a (batch, dim) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != m.layer_sizes[0]:
        raise ValueError("input length does not match the input layer")
    acts = [x]
    for w, b in zip(m.weights, m.biases):
        u = acts[-1] @ w.T + b
        acts.append(activation(u, m.a, m.beta))
    return acts


def backprop(
    m: MlpModel, x: np.ndarray, target: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Gradients of 0.5*sum((output-target)^2) over the batch, plus the loss.

    Accepts a vector or a (batch, dim) matrix; batch gradients are summed.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if target.shape[-1] != m.layer_sizes[-1]:
        raise ValueError("target length does not match the output layer")
    acts = forward(m, x)
    err = acts[-1] - target
    loss = 0.5 * float((err**2).sum())
    delta = err * activation_derivative(acts[-1], m.a, m.beta)
    grads_w: list[np.ndarray] = [None] * len(m.weights)  # type: ignore[list-item]
    grads_b: list[np.ndarray] = [None] * len(m.biases)  # type: ignore[list-item]
    for layer in reversed(range(len(m.weights))):
        grads_w[layer] = delta.T @ acts[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ m.weights[layer]) * activation_derivative(
                acts[layer], m.a, m.beta
            )
    return grads_w, grads_b, loss


@dataclass
class RpropState:
    """Per-parameter RPROP state: step sizes and previous gradients, each one
    flat array over every layer's weights and then every layer's biases, and
    the config whose ``rprop_*`` settings drive the update."""

    step: np.ndarray
    prev_grad: np.ndarray
    cfg: PipelineConfig


def init_rprop(m: MlpModel, cfg: PipelineConfig = PipelineConfig()) -> RpropState:
    """Fresh state at cfg's initial step size. The default config is for
    callers that hold none, such as perfbench's worker."""
    n = sum(p.size for p in (*m.weights, *m.biases))
    return RpropState(np.full(n, cfg.rprop_step_init), np.zeros(n), cfg)


def _choose(mask: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """``dst`` = ``src`` where ``mask`` is true, bit for bit, so every float64
    value is taken exactly; ``src`` is overwritten."""
    s, d = src.view(np.uint64), dst.view(np.uint64)
    np.bitwise_xor(s, d, out=s)
    np.multiply(s, mask, out=s)
    np.bitwise_xor(d, s, out=d)


def rprop_step(
    m: MlpModel, grads_w: list[np.ndarray], grads_b: list[np.ndarray], s: RpropState
) -> None:
    """One RPROP- update on every weight and bias, in place.

    Branch-free over the flat state: masked ufuncs and boolean indexing run
    an order of magnitude slower on the scattered masks of training.
    """
    g = np.concatenate((*grads_w, *grads_b), axis=None, dtype=np.float64)
    # prev_grad is read only here, so it is the scratch array until the
    # last line stores this step's gradient in it
    step, work, cfg = s.step, s.prev_grad, s.cfg
    np.multiply(g, work, out=work)
    grew, flipped = work > 0.0, work < 0.0
    np.multiply(step, cfg.rprop_eta_plus, out=work)
    np.minimum(work, cfg.rprop_step_max, out=work)
    _choose(grew, work, step)
    np.multiply(step, cfg.rprop_eta_minus, out=work)
    np.maximum(work, cfg.rprop_step_min, out=work)
    _choose(flipped, work, step)
    np.sign(g, out=work)
    work *= step
    start = 0
    for param in (*m.weights, *m.biases):
        param -= work[start:start + param.size].reshape(param.shape)
        start += param.size
    # a flipped gradient is zeroed (+0.0) so the next sign test sees no
    # direction
    np.logical_not(flipped, out=flipped)
    np.multiply(g.view(np.uint64), flipped, out=s.prev_grad.view(np.uint64))


def train(m: MlpModel, inputs: np.ndarray, labels: Sequence[int], epochs: int,
          rprop: RpropState) -> list[float]:
    """Full-batch RPROP training; returns the per-epoch loss trace.

    Targets are one-hot at +-0.9*beta. The per-component training mean/std
    are stored on the model and applied to all inputs.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.size == 0:
        raise ValueError("empty training set")

    m.input_mean = inputs.mean(axis=0)
    std = inputs.std(axis=0)
    # floor tiny per-component deviations relative to the largest one so
    # near-constant noise components are not amplified into the net
    floor = 0.01 * std.max()
    m.input_std = np.maximum(std, floor) if floor > 0 else np.ones_like(std)
    x = m.standardize(inputs)
    targets = np.full((len(labels), m.layer_sizes[-1]), -0.9 * m.beta)
    targets[np.arange(len(labels)), labels] = 0.9 * m.beta

    trace = []
    for _ in range(epochs):
        gw, gb, loss = backprop(m, x, targets)
        rprop_step(m, gw, gb, rprop)
        trace.append(loss)
    return trace


def predict(m: MlpModel, sample: np.ndarray) -> tuple[int, np.ndarray]:
    """(class index, raw output scores); ties go to the lowest index."""
    out = forward(m, m.standardize(np.asarray(sample, dtype=np.float64)))[-1]
    return int(np.argmax(out)), out


# ---------------------------------------------------------------------------
# model file: "harmlp 1" / layer sizes / "a beta" / standardization mean and
# std / per layer: matrix rows then the bias row, full-precision decimals

def save_model(m: MlpModel, path: str) -> None:
    def fmt(vec) -> str:
        return " ".join(map(repr, np.asarray(vec, dtype=np.float64).tolist()))

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


def load_model(path: str) -> MlpModel:
    """The model that ``save_model`` wrote to ``path``. Content that is not
    such a model raises ValueError("malformed model file <path>: <reason>")."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
        if not lines or lines[0].split() != ["harmlp", "1"]:
            raise ValueError("no 'harmlp 1' header")
        layer_sizes = [int(s) for s in lines[1].split()]
        a, beta = map(float, lines[2].split())
        mean, std = (np.array(ln.split(), dtype=np.float64) for ln in lines[3:5])
        if len(layer_sizes) < 2 or min(layer_sizes) < 1:
            raise ValueError("need two or more layer sizes, each >= 1")
        if mean.size != layer_sizes[0] or std.size != layer_sizes[0]:
            raise ValueError("standardization vectors do not match the input layer")
        # written so that NaN fails too
        if not (0 < a < np.inf and 0 < beta < np.inf):
            raise ValueError("activation a and beta must be finite and > 0")
        if not (std > 0).all():
            raise ValueError("standardization std must be > 0")
        weights, biases = [], []
        cursor = 5
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            rows = lines[cursor : cursor + fan_out + 1]
            if len(rows) != fan_out + 1:
                raise ValueError("too few lines for the layer sizes")
            # row by row, so that only one row's tokens are held at a time
            mat = np.array([np.array(r.split(), dtype=np.float64) for r in rows[:-1]])
            bias = np.array(rows[-1].split(), dtype=np.float64)
            if mat.shape != (fan_out, fan_in) or bias.size != fan_out:
                raise ValueError(f"layer {fan_out}x{fan_in} of the header has "
                                 f"{mat.shape} weights and {bias.size} biases")
            weights.append(mat)
            biases.append(bias)
            cursor += fan_out + 1
        if not all(np.isfinite(p).all() for p in (*weights, *biases, mean, std)):
            raise ValueError("non-finite parameter")
    except (IndexError, ValueError) as e:
        raise ValueError(f"malformed model file {path}: {e}") from None
    return MlpModel(layer_sizes, weights, biases, a=a, beta=beta,
                    input_mean=mean, input_std=std)
