#!/usr/bin/env python3
"""Time `harpipe train`, `harpipe evaluate` and `harpipe dump --dump-masks`
with two source trees, in alternating pairs, and write the runs to
BENCH_<topic>.json.

The default corpus of seed 0 is synthesised once, with NEW_SRC, and the
first test sequence of each class is written as one raw stream (4 x 75
frames). Each pair then runs train and evaluate on the corpus and
`dump --raw WxH --dump-masks` on the stream with both trees, each command in
a fresh process with one BLAS thread; the tree that goes first alternates
from one pair to the next, so a drift in the machine's load falls on both
sides. The file records every pair's wall times per command, whether both
trees wrote the same mask bytes, each side's held-out accuracy (the
`csv,overall` line of `evaluate`), a digest of each tree's package sources,
the medians and quartiles of each side's train-plus-evaluate time and of its
dump time, the pairs NEW_SRC won on each, and `nproc`.

Usage: bench.py OLD_SRC NEW_SRC --pairs N --topic T
where each path is a directory holding the `harpipe` package, such as a
checkout's `src/`. A pair takes about half a minute on a 2-CPU machine.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from compare_outputs import compare, first_sequences, write_stream

SIDES = ("old", "new")


def harpipe(src: str, args: list[str]) -> tuple[float, str]:
    """Run one harpipe command with ``src`` on the import path; return its
    wall time in seconds and its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "harpipe.cli", *args], env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{src}: harpipe {' '.join(args)} exited {proc.returncode}")
    return wall, proc.stdout


def accuracy(report: str) -> float:
    """Overall accuracy, in percent, from an `evaluate` report."""
    [line] = [ln for ln in report.splitlines() if ln.startswith("csv,overall,")]
    return float(line.rsplit(",", 1)[1])


def digest(src: str) -> str:
    """SHA-256 over the tree's package sources, file by file in name order."""
    h = hashlib.sha256()
    package = os.path.join(src, "harpipe")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--topic", required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = dict(zip(SIDES, (args.old_src, args.new_src)))

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus")
        harpipe(trees["new"], ["synth", corpus, "--set", "seed=0"])
        train, test = os.path.join(corpus, "train"), os.path.join(corpus, "test")
        stream = os.path.join(tmp, "stream.raw")
        geometry = write_stream(first_sequences(test), stream)
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                model = os.path.join(tmp, f"model_{side}.txt")
                masks = os.path.join(tmp, f"masks_{side}")
                train_s, _ = harpipe(trees[side], ["train", train, model])
                evaluate_s, report = harpipe(trees[side], ["evaluate", test, model])
                dump_s, _ = harpipe(trees[side], ["dump", stream, "--raw", geometry,
                                                  "--dump-masks", masks])
                pair[side] = {"train_s": round(train_s, 3),
                              "evaluate_s": round(evaluate_s, 3),
                              "total_s": round(train_s + evaluate_s, 3),
                              "dump_s": round(dump_s, 3),
                              "accuracy_percent": accuracy(report)}
            verdict = compare(*(os.path.join(tmp, f"masks_{side}") for side in SIDES))
            pair["same_masks"] = verdict == "identical"
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: "
                  + ", ".join(f"{s} {pair[s]['total_s']:.2f} s + dump {pair[s]['dump_s']:.2f} s"
                              for s in SIDES),
                  file=sys.stderr, flush=True)

    summary = {}
    for side in SIDES:
        summary[side] = {"src_sha256": digest(trees[side]),
                         "accuracy_percent": sorted({p[side]["accuracy_percent"]
                                                     for p in pairs})}
        for key in ("total_s", "dump_s"):
            q1, median, q3 = np.percentile([p[side][key] for p in pairs], [25, 50, 75])
            summary[side][f"{key}_median"] = round(median, 3)
            summary[side][f"{key}_quartiles"] = [round(q1, 3), round(q3, 3)]
    summary["new_won"] = sum(p["new"]["total_s"] < p["old"]["total_s"] for p in pairs)
    summary["new_won_dump"] = sum(p["new"]["dump_s"] < p["old"]["dump_s"] for p in pairs)
    summary["same_masks"] = all(p["same_masks"] for p in pairs)
    result = {"topic": args.topic,
              "workload": "train then evaluate on the default synth corpus, seed 0; "
                          "dump --dump-masks on the first test sequence of each class "
                          "as one raw stream",
              "nproc": len(os.sched_getaffinity(0)),
              "python": sys.version.split()[0], "numpy": np.__version__,
              "summary": summary, "pairs": pairs}
    out = f"BENCH_{args.topic}.json"
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
