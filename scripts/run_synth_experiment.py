#!/usr/bin/env python3
"""Generate the synthetic corpus, train a classifier, and print the
held-out evaluation report — the desk-scale analogue of the published
experiment. Everything is seeded, so two runs produce identical output.

Usage: run_synth_experiment.py [workdir] [--seed N] [--sweep]
       run_synth_experiment.py [workdir] --seeds A B ...
where every command takes N as `--set seed=N`.

With `--seeds` it runs the experiment once per seed instead, in
process: each seed's default corpus is synthesised into a temporary
directory under workdir, extracted once, trained on and scored. It prints
one line per seed with the per-sequence accuracy (a majority vote over each
test sequence's windows, as `evaluate` reports it) and the per-window
accuracy, then one line with the mean, minimum and maximum of each over the
seeds.
"""

import argparse
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from harpipe import cli, mlp, synth  # noqa: E402
from harpipe.config import PipelineConfig  # noqa: E402


def seed_accuracy(workdir: str, seed: int) -> tuple[float, float]:
    """Per-sequence and per-window test accuracy, in percent, of the model
    trained on the default corpus of ``seed``."""
    cfg = PipelineConfig(seed=seed)
    with tempfile.TemporaryDirectory(dir=workdir) as corpus:
        synth.write_corpus(corpus, seed=seed)
        train_x, train_y, _, _ = cli.extract_split(os.path.join(corpus, "train"), cfg)
        test = cli.extract_split(os.path.join(corpus, "test"), cfg)
    model, _ = cli._train_model(train_x, train_y, cfg)
    _, per_sequence = cli.class_rates(cli.score_dataset(model, *test))
    values, labels = test[:2]
    classes = np.array([mlp.predict(model, v)[0] for v in values])
    return per_sequence, 100.0 * np.mean(classes == labels)


def run_seeds(workdir: str, seeds: list[int]) -> int:
    os.makedirs(workdir, exist_ok=True)
    rates = []  # (per-sequence, per-window) per seed
    for seed in seeds:
        rates.append(seed_accuracy(workdir, seed))
        print(f"seed {seed}: per-sequence {rates[-1][0]:.1f}%, "
              f"per-window {rates[-1][1]:.2f}%", flush=True)
    summary = [f"{name} mean {np.mean(r):.2f}% min {min(r):.2f}% max {max(r):.2f}%"
               for name, r in zip(("per-sequence", "per-window"), zip(*rates))]
    print(f"over {len(seeds)} seeds: " + "; ".join(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", default="synth_experiment")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=0)
    seeds.add_argument("--seeds", type=int, nargs="+", metavar="SEED",
                       help="one in-process run per seed, and their mean, "
                            "minimum and maximum accuracy")
    parser.add_argument("--sweep", action="store_true",
                        help="also run the feature-size sweep over {8, 10, 14}")
    args = parser.parse_args()

    if args.seeds:
        if args.sweep:
            parser.error("--sweep runs on one seed, not with --seeds")
        return run_seeds(args.workdir, args.seeds)

    corpus = os.path.join(args.workdir, "corpus")
    model = os.path.join(args.workdir, "model.txt")
    seed = ["--set", f"seed={args.seed}"]

    t0 = time.perf_counter()
    for step in (
        ["synth", corpus] + seed,
        ["train", os.path.join(corpus, "train"), model] + seed,
        ["evaluate", os.path.join(corpus, "test"), model] + seed,
    ):
        rc = cli.main(step)
        if rc != 0:
            return rc
    print(f"\ntotal time: {time.perf_counter() - t0:.0f}s", file=sys.stderr)

    if args.sweep:
        return cli.main(
            ["sweep", os.path.join(corpus, "train"),
             os.path.join(corpus, "test"), "--values", "8", "10", "14"] + seed
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
