"""The benchmark's workloads: the seeded inputs each one writes before timing
starts, the job a round runs in a fresh process (see worker.py), and the
checks on the round's outputs.

No check compares against a stored copy of earlier output. Each one checks a
property the output must have: counts that follow from the inputs, an
independent recomputation, or agreement with the scalar reference in
tests/oracles.py.
"""

from __future__ import annotations

import os
import re
import shutil
import zlib

import numpy as np

from harpipe import synth
from harpipe.config import PipelineConfig
from harpipe.frameio import Frame, encode_pgm, load_sequence
from harpipe.mlp import ACTION_LABELS
from oracles import ScalarGmmOracle

# synth sequences are 75 frames; the default 25-frame windows do not overlap
WINDOWS_PER_SEQUENCE = synth.FRAMES_PER_SEQUENCE // PipelineConfig().window_frames


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def input_rng(seed: int, workload: str) -> np.random.Generator:
    """Each workload draws its inputs from its own stream of the seed."""
    return np.random.default_rng([seed % 2**32, zlib.crc32(workload.encode())])


def write_corpus(root: str, rng: np.random.Generator,
                 per_class: dict[str, tuple[int, ...]]) -> int:
    """Write root/<split>/<class>/seq_NNN/frame_NNN.pgm from synth sequences,
    with per_class[split][k] sequences of class k; returns the frame count."""
    shutil.rmtree(root, ignore_errors=True)
    frames = 0
    for split, counts in per_class.items():
        for label, n in zip(ACTION_LABELS, counts):
            for s in range(n):
                seq_dir = os.path.join(root, split, label, f"seq_{s:03d}")
                os.makedirs(seq_dir)
                for i, pixels in enumerate(synth.generate_sequence(label, rng)):
                    path = os.path.join(seq_dir, f"frame_{i:03d}.pgm")
                    with open(path, "wb") as fh:
                        fh.write(encode_pgm(Frame(synth.WIDTH, synth.HEIGHT, i, pixels)))
                    frames += 1
    return frames


class TrainEval:
    """`harpipe train` then `harpipe evaluate` on a seeded PGM corpus: a
    small instance of the paper's experiment, repeated in short passes so
    that a run's median rests on several of them."""

    name = "train_eval"
    unit_name = "frames_per_s"
    ops_per_pass = 2  # the train and the evaluate command
    setup_repeats = 3  # setup_s is the median time to write the corpus
    TRAIN = (1, 1, 1, 1)  # sequences per class, in ACTION_LABELS order
    TEST = (1, 1, 1, 1)

    def setup(self, work: str, seed: int) -> dict:
        corpus = os.path.join(work, "corpus")
        frames = write_corpus(corpus, input_rng(seed, self.name),
                              {"train": self.TRAIN, "test": self.TEST})
        return {"frames": frames,
                "train_dir": os.path.join(corpus, "train"),
                "test_dir": os.path.join(corpus, "test"),
                "model": os.path.join(work, "model.txt")}

    def job(self, inputs: dict) -> dict:
        return {k: inputs[k] for k in ("train_dir", "test_dir", "model")}

    def units(self, inputs: dict, result: dict) -> int:
        return inputs["frames"]

    def check(self, inputs: dict, result: dict) -> str:
        accuracy = check_train_eval(result["train_out"], result["eval_out"],
                                    self.TRAIN, self.TEST)
        return f"held-out sequence accuracy {accuracy:.1f} %"


def check_train_eval(train_out: str, eval_out: str,
                     train: tuple[int, ...], test: tuple[int, ...]) -> float:
    """Returns the held-out sequence accuracy in percent."""
    for label, n in zip(ACTION_LABELS, train):
        m = re.search(rf"^samples {label}: (\d+)$", train_out, re.M)
        require(m and int(m.group(1)) == WINDOWS_PER_SEQUENCE * n,
                f"train: samples {label} is not {WINDOWS_PER_SEQUENCE} x {n}")
    m = re.search(r"^samples total: (\d+)$", train_out, re.M)
    require(m and int(m.group(1)) == WINDOWS_PER_SEQUENCE * sum(train),
            f"train: samples total is not {WINDOWS_PER_SEQUENCE} x {sum(train)}")

    rows = {}
    for line in eval_out.splitlines():
        parts = line.split(",")
        if (len(parts) == 7 and parts[0] == "csv"
                and parts[1].lower() in ACTION_LABELS):
            require(all(c.isdigit() for c in parts[2:6]), f"evaluate: bad row {line!r}")
            rows[parts[1].lower()] = [int(c) for c in parts[2:6]]
    require(sorted(rows) == sorted(ACTION_LABELS),
            "evaluate: confusion matrix rows are not the four classes")
    matrix = np.array([rows[label] for label in ACTION_LABELS])
    require(matrix.sum() == sum(test),
            f"evaluate: confusion matrix sums to {matrix.sum()}, not {sum(test)}")
    require(matrix.sum(axis=1).tolist() == list(test),
            "evaluate: per-class test counts do not match the corpus")
    accuracy = 100.0 * np.trace(matrix) / matrix.sum()
    m = re.search(r"^csv,overall,,,,,([0-9.]+)$", eval_out, re.M)
    require(m and abs(float(m.group(1)) - accuracy) <= 0.05,
            "evaluate: reported overall accuracy disagrees with the matrix")
    return accuracy


class MlpSearch:
    """Descriptors extracted once in set-up; the timed phase trains, saves,
    reloads and scores a grid of models through mlp's public API."""

    name = "mlp_search"
    TRAIN = (3, 3, 3, 3)
    TEST = (2, 2, 2, 2)
    HIDDEN = (20, 60, 200)
    SIZES = (4, 7, 10)
    EPOCHS = 300  # the default is 50
    unit_name = "epochs_per_s"
    ops_per_pass = len(HIDDEN) * len(SIZES)  # one per model
    # setup_s is the worker's import and descriptor extraction, about 10 s,
    # so it is done once per run. Writing the corpus is not part of it.
    setup_repeats = 1

    def setup(self, work: str, seed: int) -> dict:
        corpus = os.path.join(work, "corpus")
        write_corpus(corpus, input_rng(seed, self.name),
                     {"train": self.TRAIN, "test": self.TEST})
        models = os.path.join(work, "models")
        os.makedirs(models, exist_ok=True)
        return {"train_dir": os.path.join(corpus, "train"),
                "test_dir": os.path.join(corpus, "test"),
                "models_dir": models,
                "held_out": os.path.join(work, "held_out.npy")}

    def job(self, inputs: dict) -> dict:
        return dict(inputs, hidden=self.HIDDEN, sizes=self.SIZES,
                    epochs=self.EPOCHS, model_seed=0)

    def units(self, inputs: dict, result: dict) -> int:
        """Epochs trained in one pass over the grid."""
        return sum(m["epochs"] for m in result["models"])

    def check(self, inputs: dict, result: dict) -> str:
        require(result["passes_differing"] == 0,
                f"{result['passes_differing']} grid passes gave other models "
                "than the first")
        accuracy = check_mlp_search(result["models"], np.load(inputs["held_out"]),
                                    result["held_out_labels"])
        return f"mean held-out window accuracy {accuracy:.1f} %"


def read_model(path: str) -> dict:
    """Parse a harmlp model file without harpipe's loader."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    require(lines[0] == "harmlp 1", f"{path}: not a harmlp model")
    sizes = [int(v) for v in lines[1].split()]
    a, beta = (float(v) for v in lines[2].split())
    rows = [np.array([float(v) for v in line.split()]) for line in lines[3:]]
    layers, cursor = [], 2
    for fan_out in sizes[1:]:
        layers.append((np.array(rows[cursor:cursor + fan_out]), rows[cursor + fan_out]))
        cursor += fan_out + 1
    return {"a": a, "beta": beta, "mean": rows[0], "std": rows[1], "layers": layers}


def forward(model: dict, x: np.ndarray) -> np.ndarray:
    """beta * tanh(a*u/2) at every layer, on standardised input."""
    h = (x - model["mean"]) / model["std"]
    for w, b in model["layers"]:
        h = model["beta"] * np.tanh(model["a"] * (h @ w.T + b) / 2)
    return h


def check_mlp_search(models: list[dict], held_out: np.ndarray,
                     labels: list[int]) -> float:
    """Returns the mean held-out window accuracy over the grid in percent."""
    accuracies = []
    for m in models:
        tag = f"h{m['hidden']} n{m['n']}"
        require(m["final_loss"] < m["first_loss"],
                f"{tag}: final loss {m['final_loss']} not below {m['first_loss']}")
        model = read_model(m["path"])
        preds = m["predictions"]
        require(len(preds) == len(labels) == len(held_out),
                f"{tag}: {len(preds)} predictions for {len(labels)} windows")
        dim = model["mean"].size
        for i, x in enumerate(held_out):
            own = int(np.argmax(forward(model, x[:dim])))
            require(own == preds[i],
                    f"{tag}: window {i} recomputed as class {own}, "
                    f"mlp.predict said {preds[i]}")
        accuracies.append(np.mean(np.array(preds) == np.array(labels)))
    require(max(accuracies) > 1.0 / len(ACTION_LABELS),
            f"best grid accuracy {max(accuracies):.3f} is no better than chance")
    return 100.0 * float(np.mean(accuracies))


class MasksStream:
    """`harpipe dump --raw 320x240 --dump-masks` over one long raw stream:
    synth sequences of the four classes in turn, each 160x120 frame
    replicated 2x2, so the pixel-centre bilinear resize to the working
    resolution returns the generator's frames exactly."""

    name = "masks_stream"
    unit_name = "frames_per_s"
    ops_per_pass = 1  # the dump command
    setup_repeats = 3  # setup_s is the median time to write the stream
    FRAMES = 300
    RAW = "320x240"
    # a fixed grid of pixels checked against the scalar GMM reference
    SAMPLE_Y = range(3, synth.HEIGHT, 8)
    SAMPLE_X = range(5, synth.WIDTH, 8)

    def setup(self, work: str, seed: int) -> dict:
        rng = input_rng(seed, self.name)
        frames = np.empty((self.FRAMES, synth.HEIGHT, synth.WIDTH), np.uint8)
        stream = os.path.join(work, "stream.raw")
        with open(stream, "wb") as fh:
            i = 0
            while i < self.FRAMES:
                label = ACTION_LABELS[(i // synth.FRAMES_PER_SEQUENCE) % len(ACTION_LABELS)]
                for pixels in synth.generate_sequence(label, rng)[: self.FRAMES - i]:
                    frames[i] = pixels
                    fh.write(pixels.repeat(2, axis=0).repeat(2, axis=1).tobytes())
                    i += 1
        return {"stream": stream, "frames": frames,
                "masks_dir": os.path.join(work, "masks")}

    def job(self, inputs: dict) -> dict:
        shutil.rmtree(inputs["masks_dir"], ignore_errors=True)
        return {"stream": inputs["stream"], "raw": self.RAW,
                "masks_dir": inputs["masks_dir"]}

    def units(self, inputs: dict, result: dict) -> int:
        return len(inputs["frames"])

    def check(self, inputs: dict, result: dict) -> None:
        """The first round is checked in full; the dump is deterministic,
        so later rounds must repeat its masks."""
        masks = read_masks(inputs["masks_dir"])
        if "masks" in inputs:
            require(len(masks) == len(inputs["masks"])
                    and all(map(np.array_equal, masks, inputs["masks"])),
                    "masks differ from the first round's")
            return
        resized = np.stack([f.pixels for f in load_sequence(
            inputs["stream"], working_resolution=(synth.WIDTH, synth.HEIGHT),
            raw=self.RAW)])
        check_masks(masks, resized, inputs["frames"], self.SAMPLE_Y, self.SAMPLE_X)
        inputs["masks"] = masks


def read_masks(masks_dir: str) -> list[np.ndarray]:
    """Masks in frame order, parsed without harpipe's decoder."""
    out = []
    for i, name in enumerate(sorted(os.listdir(masks_dir))):
        require(name == f"mask_{i:05d}.pgm", f"unexpected mask file {name}")
        with open(os.path.join(masks_dir, name), "rb") as fh:
            data = fh.read()
        header = f"P5\n{synth.WIDTH} {synth.HEIGHT}\n255\n".encode()
        require(data.startswith(header), f"{name}: not a {synth.WIDTH}x{synth.HEIGHT} P5 mask")
        pixels = np.frombuffer(data[len(header):], np.uint8)
        require(pixels.size == synth.WIDTH * synth.HEIGHT, f"{name}: truncated")
        out.append(pixels.reshape(synth.HEIGHT, synth.WIDTH))
    return out


def check_masks(masks: list[np.ndarray], resized: np.ndarray, frames: np.ndarray,
                sample_y, sample_x) -> None:
    require(len(masks) == len(frames),
            f"{len(masks)} masks for {len(frames)} frames")
    masks = np.stack(masks)
    require(np.isin(masks, (0, 255)).all(), "mask values other than 0 and 255")
    require(np.array_equal(resized, frames),
            "resized stream differs from the generator's frames")
    cfg = PipelineConfig()
    disagree = 0
    for y in sample_y:
        for x in sample_x:
            oracle = ScalarGmmOracle(
                k=cfg.gmm_components, alpha=cfg.gmm_alpha, t=cfg.gmm_threshold,
                match_radius=cfg.gmm_match_radius,
                initial_variance=cfg.gmm_initial_variance,
                variance_floor=cfg.gmm_variance_floor)
            want = np.array([oracle.step(v) for v in frames[:, y, x]])
            disagree += int((want != (masks[:, y, x] == 255)).sum())
    require(disagree == 0,
            f"{disagree} of {len(sample_y) * len(sample_x) * len(frames)} sampled "
            "mask pixels disagree with the scalar GMM reference")


WORKLOADS = {w.name: w for w in (TrainEval(), MlpSearch(), MasksStream())}
