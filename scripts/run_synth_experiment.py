#!/usr/bin/env python3
"""Generate the synthetic corpus, train a classifier, and print the
held-out evaluation report — the desk-scale analogue of the published
experiment. Everything is seeded, so two runs produce identical output.

Usage: run_synth_experiment.py [workdir] [--seed N] [--sweep]
where every command takes N as `--set seed=N`.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from harpipe import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", default="synth_experiment")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="also run the feature-size sweep over {8, 10, 14}")
    args = parser.parse_args()

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
