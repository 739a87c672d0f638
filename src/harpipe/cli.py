"""Command-line front end: train, classify, evaluate, synth, sweep.

Reports go to stdout, progress/log lines to stderr. Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Iterator

import numpy as np

from . import bgmodel, goodfeat, lkflow, mlp, pipeline, synth
from .config import PipelineConfig, load_config
from .flowdesc import DESCRIPTOR_DIM
from .frameio import Frame, encode_pgm, load_sequence
from .mlp import ACTION_LABELS


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _class_sequence_dirs(root: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for label in ACTION_LABELS:
        class_dir = os.path.join(root, label)
        if not os.path.isdir(class_dir):
            raise DataError(f"missing class directory {class_dir!r}")
        seqs = sorted(
            os.path.join(class_dir, d)
            for d in os.listdir(class_dir)
            if os.path.isdir(os.path.join(class_dir, d))
        )
        out[label] = seqs
    return out


def _frames(seq_dir: str, cfg: PipelineConfig, raw: str | None = None
            ) -> Iterator[Frame]:
    """The sequence's frames, read one at a time. An error in reading or
    decoding them becomes a DataError; errors of the code that consumes the
    frames pass through unchanged."""
    try:
        yield from load_sequence(
            seq_dir, working_resolution=cfg.working_resolution, raw=raw
        )
    except (OSError, ValueError) as e:
        raise DataError(f"{seq_dir}: {e}") from None


def _extract_dataset(dataset_dir: str, cfg: PipelineConfig):
    """Window values, label indices and sequence ids over the class layout,
    plus the sequence directories the ids index. Frames are streamed, so at
    most one window group of them is held at a time."""
    values, labels, seq_ids, seq_dirs = [], [], [], []
    for label, class_seqs in _class_sequence_dirs(dataset_dir).items():
        count = 0
        for seq_dir in class_seqs:
            samples = pipeline.sequence_samples(_frames(seq_dir, cfg), cfg)
            for _, sample in samples:
                values.append(sample.values)
                seq_ids.append(len(seq_dirs))
                count += 1
            seq_dirs.append(seq_dir)
        labels += [mlp.label_index(label)] * count
        _log(f"extracted {count} samples from {label}")
    if not values:
        raise DataError(f"no samples extracted from {dataset_dir!r}")
    return np.array(values), np.array(labels), np.array(seq_ids), seq_dirs


def score_dataset(model: mlp.MlpModel, values, labels, seq_ids, seq_dirs
                  ) -> np.ndarray:
    """Confusion matrix (rows = true class) of the per-sequence majority
    votes over per-window predictions, from ``_extract_dataset``'s output."""
    classes = np.array([mlp.predict(model, v)[0] for v in values])
    matrix = np.zeros((len(ACTION_LABELS), len(ACTION_LABELS)), dtype=np.int64)
    for seq, seq_dir in enumerate(seq_dirs):
        rows = np.flatnonzero(seq_ids == seq)
        if not rows.size:
            raise DataError(f"{seq_dir}: sequence shorter than one window")
        matrix[labels[rows[0]], pipeline.majority_label(classes[rows])] += 1
    return matrix


def _train_model(inputs, labels, cfg: PipelineConfig):
    counts = np.bincount(labels, minlength=len(ACTION_LABELS))
    empty = [label for label, n in zip(ACTION_LABELS, counts) if not n]
    if empty:
        raise DataError(f"no training samples for {', '.join(empty)}")
    sizes = [inputs.shape[1], cfg.hidden_nodes, len(ACTION_LABELS)]
    model = mlp.init_model(sizes, cfg.seed, cfg.activation_a, cfg.activation_beta)
    # settings each within its bounds can still carry the net out of the
    # float range; such a model is reported, not written
    with np.errstate(over="ignore", invalid="ignore"):
        trace = mlp.train(model, inputs, labels, cfg.epochs,
                          mlp.init_rprop(model, cfg))
    params = (*model.weights, *model.biases, model.input_mean, model.input_std)
    if not all(np.isfinite(p).all() for p in params):
        raise UsageError("training diverged: the activation and RPROP "
                         "settings carry a parameter out of the float range")
    return model, trace


def cmd_train(args, cfg: PipelineConfig) -> int:
    # checked before the corpus is extracted, as the model is in _load_model
    if not args.model_out:
        raise UsageError("model file path is empty")
    out_dir = os.path.dirname(args.model_out) or "."
    if not os.path.isdir(out_dir):
        raise UsageError(f"no directory {out_dir!r} for {args.model_out!r}")
    if os.path.isdir(args.model_out):
        raise UsageError(f"model file {args.model_out!r} is a directory")
    values, labels, _, _ = _extract_dataset(args.dataset_dir, cfg)
    model, trace = _train_model(values, labels, cfg)
    mlp.save_model(model, args.model_out)
    print(f"trained model written to {args.model_out}")
    per_class = np.bincount(labels, minlength=len(ACTION_LABELS))
    for label, count in zip(ACTION_LABELS, per_class):
        print(f"samples {label}: {count}")
    print(f"samples total: {len(labels)}")
    print(f"epochs: {cfg.epochs}")
    print(f"final loss: {trace[-1]:.6f}" if trace else "final loss: n/a")
    return 0


def _load_model(path: str, cfg: PipelineConfig) -> mlp.MlpModel:
    """The model at ``path``, checked to take cfg's samples and to score the
    action classes."""
    try:
        model = mlp.load_model(path)
    except (OSError, ValueError) as e:
        raise DataError(str(e)) from None
    n_values = cfg.feature_size * DESCRIPTOR_DIM
    if n_values != model.layer_sizes[0]:
        raise DataError(
            f"{path}: feature_size gives {n_values} sample values "
            f"({cfg.feature_size} x {DESCRIPTOR_DIM}), but the model's "
            f"input layer takes {model.layer_sizes[0]}"
        )
    if model.layer_sizes[-1] != len(ACTION_LABELS):
        raise DataError(
            f"{path}: the model's output layer has {model.layer_sizes[-1]} nodes, "
            f"but there are {len(ACTION_LABELS)} action classes"
        )
    return model


def cmd_classify(args, cfg: PipelineConfig) -> int:
    model = _load_model(args.model, cfg)
    n_frames = 0

    def counted(frames):
        nonlocal n_frames
        for n_frames, f in enumerate(frames, 1):
            yield f

    # every window is extracted before the first line is printed, so a data
    # error anywhere in the stream leaves stdout empty
    samples = pipeline.sequence_samples(
        counted(_frames(args.sequence, cfg, raw=args.raw)), cfg
    )
    if not samples:
        raise DataError(f"{args.sequence}: sequence has {n_frames} frames, "
                        f"needs >= {cfg.window_frames}")
    for start, sample in samples:
        cls, scores = mlp.predict(model, sample.values)
        score_text = " ".join(f"{s:.6f}" for s in scores)
        print(f"{start} {ACTION_LABELS[cls]} {score_text}")
    return 0


def class_rates(matrix: np.ndarray) -> tuple[list[float], float]:
    """Per-class recognition rates and overall accuracy of a confusion
    matrix, in percent; 0 for an empty row or matrix."""
    row_sums = matrix.sum(axis=1)
    per_class = [100.0 * matrix[i, i] / row_sums[i] if row_sums[i] else 0.0
                 for i in range(len(matrix))]
    total = matrix.sum()
    return per_class, 100.0 * np.trace(matrix) / total if total else 0.0


def format_report(matrix: np.ndarray) -> str:
    """Fixed-width confusion matrix, per-class rates, overall accuracy, plus
    a CSV duplicate. Rows are true classes in the fixed label order."""
    names = [label.capitalize() for label in ACTION_LABELS]
    lines = ["Confusion matrix (rows = true class)"]
    head = f"{'':<10}" + "".join(f"{n:>10}" for n in names)
    lines.append(head)
    for i, n in enumerate(names):
        lines.append(f"{n:<10}" + "".join(f"{int(c):>10}" for c in matrix[i]))
    lines.append("")
    lines.append("Per-class recognition rate")
    per_class, overall = class_rates(matrix)
    for n, rate in zip(names, per_class):
        lines.append(f"{n:<10}{rate:>9.1f}%")
    lines.append(f"{'Overall':<10}{overall:>9.1f}%")
    lines.append("")
    lines.append("csv,true_class," + ",".join(names) + ",rate_percent")
    for n, row, rate in zip(names, matrix, per_class):
        cells = ",".join(str(int(c)) for c in row)
        lines.append(f"csv,{n},{cells},{rate:.1f}")
    lines.append(f"csv,overall,,,,,{overall:.1f}")
    return "\n".join(lines)


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    model = _load_model(args.model, cfg)
    matrix = score_dataset(model, *_extract_dataset(args.test_dir, cfg))
    print(format_report(matrix))
    return 0


def cmd_synth(args, cfg: PipelineConfig) -> int:
    if min(args.train_per_class, args.test_per_class) < 0:
        raise UsageError("--train-per-class and --test-per-class must be >= 0")
    counts = synth.write_corpus(
        args.out_dir, seed=cfg.seed,
        train_per_class=args.train_per_class, test_per_class=args.test_per_class,
    )
    print(f"wrote {counts['train']} training and {counts['test']} test "
          f"sequences under {args.out_dir}")
    return 0


def cmd_sweep(args, cfg: PipelineConfig) -> int:
    values = sorted(set(args.values))
    if len(values) < 2:
        raise UsageError("sweep needs at least two distinct feature sizes")
    try:
        cfgs = [dataclasses.replace(cfg, feature_size=n) for n in values]
    except ValueError as e:
        raise UsageError(f"--values: {e}") from None

    # extraction is shared at the largest N: greedy feature selection is a
    # prefix, so a smaller-N sample is the leading 12*N entries
    train_x, train_y, _, _ = _extract_dataset(args.dataset_dir, cfgs[-1])
    test_x, *test_rest = _extract_dataset(args.test_dir, cfgs[-1])

    rates = []  # (per-class, overall) per feature size
    for n in values:
        cols = n * DESCRIPTOR_DIM
        model, _ = _train_model(train_x[:, :cols], train_y, cfg)
        rates.append(class_rates(score_dataset(model, test_x[:, :cols], *test_rest)))
        _log(f"feature size {n}: done")

    names = [label.capitalize() for label in ACTION_LABELS]
    print("Recognition rate (%) by feature size")
    print(f"{'Action':<10}" + "".join(f"{f'N={n}':>10}" for n in values))
    for i, name in enumerate(names):
        print(f"{name:<10}"
              + "".join(f"{per_class[i]:>10.1f}" for per_class, _ in rates))
    print(f"{'Overall':<10}" + "".join(f"{overall:>10.1f}" for _, overall in rates))
    print("csv,feature_size," + ",".join(str(n) for n in values))
    print("csv,overall_percent," + ",".join(f"{overall:.1f}" for _, overall in rates))
    return 0


def cmd_dump(args, cfg: PipelineConfig) -> int:
    """Diagnostic exports: foreground masks, features, flow, per the
    --dump-* flags on the shared parser. One pass over the frames takes each
    frame through every requested stage in that order; the flow stage holds
    only the last flow-step frame, its pyramid and, when the features stage
    detected them, its corners."""
    step = cfg.flow_step
    gmm = prev = None
    for f in _frames(args.sequence, cfg, raw=args.raw):
        if f.index == 0:
            # a sequence path that cannot be read leaves no directory behind
            for out_dir in (args.dump_masks, args.dump_features, args.dump_flow):
                if out_dir:
                    os.makedirs(out_dir, exist_ok=True)
        if args.dump_masks:
            if gmm is None:
                gmm = bgmodel.BackgroundModel(cfg, f.pixels.shape)
            mask = gmm.update_and_classify(f.pixels)
            pixels = mask.view(np.uint8) * np.uint8(255)
            path = os.path.join(args.dump_masks, f"mask_{f.index:05d}.pgm")
            with open(path, "wb") as fh:
                fh.write(encode_pgm(Frame(f.width, f.height, f.index, pixels)))
        points = None
        if args.dump_features:
            points = goodfeat.detect_good_features(f.pixels, cfg)
            path = os.path.join(args.dump_features, f"features_{f.index:05d}.txt")
            with open(path, "w") as fh:
                for x, y, score in points.tolist():
                    fh.write(f"{f.index} {x} {y} {score}\n")
        if args.dump_flow and f.index % step == 0:
            pj = lkflow.build_pyramid(f.pixels, cfg.pyramid_levels)
            if prev is not None:
                pixels_i, pi, points_i = prev
                i = f.index - step
                if points_i is None:
                    points_i = goodfeat.detect_good_features(pixels_i, cfg)
                xy = points_i[:, :2]
                tracks = lkflow.track_points(pi, pj, xy, cfg)
                rows = zip(xy.tolist(), (tracks.dxy / step).tolist(),
                           tracks.status, tracks.residual.tolist())
                path = os.path.join(args.dump_flow, f"flow_{i:05d}.txt")
                with open(path, "w") as fh:
                    for (x, y), (u, v), status, residual in rows:
                        name = lkflow.TrackStatus(status).name
                        fh.write(f"{i} {x} {y} {u} {v} {name} {residual}\n")
            prev = f.pixels, pj, points
    print("dump complete")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="harpipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key")

    p = sub.add_parser("train", parents=[common],
                       help="train a classifier on a class-layout dataset")
    p.add_argument("dataset_dir")
    p.add_argument("model_out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("classify", parents=[common],
                       help="per-window predictions for one sequence")
    p.add_argument("sequence")
    p.add_argument("model")
    p.add_argument("--raw", metavar="WxH[:rgb]",
                   help="treat the sequence path as a raw 8-bit stream")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("evaluate", parents=[common],
                       help="confusion matrix over a test dataset")
    p.add_argument("test_dir")
    p.add_argument("model")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("synth", parents=[common],
                       help="generate the synthetic 4-class corpus")
    p.add_argument("out_dir")
    p.add_argument("--train-per-class", type=int, default=synth.TRAIN_PER_CLASS)
    p.add_argument("--test-per-class", type=int, default=synth.TEST_PER_CLASS)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("sweep", parents=[common],
                       help="accuracy table over feature sizes")
    p.add_argument("dataset_dir")
    p.add_argument("test_dir")
    p.add_argument("--values", type=int, nargs="+", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("dump", parents=[common],
                       help="diagnostic exports for one sequence")
    p.add_argument("sequence")
    p.add_argument("--raw", metavar="WxH[:rgb]")
    p.add_argument("--dump-masks", metavar="DIR")
    p.add_argument("--dump-features", metavar="DIR")
    p.add_argument("--dump-flow", metavar="DIR")
    p.set_defaults(fn=cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            cfg = load_config(args.config, args.set)
        except ValueError as e:
            raise UsageError(str(e)) from None
        return args.fn(args, cfg)
    except (UsageError, OSError, MemoryError) as e:
        # sequence and model read errors are already Data- or UsageErrors, so
        # an OSError here is a config file that cannot be read or an output
        # path that cannot be written, and a MemoryError comes from a setting
        # too large to allocate
        print(f"usage error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
