#!/usr/bin/env python3
"""Run the CLI's commands with two source trees and compare what they write.

On the default synthetic corpus (seed 0), synthesised once, each tree runs
`train`, then `train` once more with `jacobian_probe_offset=40`, whose
probes so far from each point often leave an axis with one tracked probe or
none (its model file is compared), then
`evaluate`, `classify` on one test sequence, `sweep --values 8 10 14`
and `dump --dump-masks --dump-features --dump-flow` on one test sequence,
then `dump --dump-features` on it once more with a 7x7 structure-tensor
window (`tensor_half_window=3`), `min_distance=0` and 30 features, so that
a second box size and adjacent corners are compared too.
Then the first test sequence of three classes is written as one 225-frame
raw stream, and each tree runs `classify --raw` and `dump --raw` with the
three dump flags on it: its 9 windows make two full groups of
`WINDOWS_PER_CALL` windows and a partial one. `classify --raw` runs on it
once more with `window_stride=10` and `flow_step=4`, whose overlapping
windows read frames that the next group reads too, and once more on an RGB
copy of the stream, whose three channels differ so that their average
rounds (`--raw WxH:rgb`). `dump --raw --dump-masks` runs on the stream twice
more, with `gmm_components=5 gmm_threshold=1.0` and with `gmm_components=1`:
beside the default K = 3 and t = 0.7, the masks then cover pixels matched
at ranks 1 to 4, a cumulative weight that rounds just below t = 1, and a
mixture whose every miss replaces its one component. One line per artifact (a
command's stdout, a model file, or one dump directory) says `identical`,
gives the largest absolute difference between numeric tokens when all other
text matches, or says `differs`. The exit status is 1 if any artifact
differs.

Usage: compare_outputs.py OLD_SRC NEW_SRC
where each path is a directory holding the `harpipe` package, such as a
checkout's `src/`. Both trees together take about two minutes on a 2-CPU machine.
"""

import os
import re
import subprocess
import sys
import tempfile

import numpy as np

STREAM_SEQUENCES = 3  # test sequences written as the raw stream
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")
DUMPS = ("masks", "features", "flow")


def run(src: str, cwd: str, name: str, args: list[str]) -> None:
    """Run one harpipe command with ``src`` on the import path, from
    ``cwd``, and keep its stdout as the artifact ``name``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "harpipe.cli", *args], cwd=cwd,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"{src}: harpipe {' '.join(args)} exited {proc.returncode}")
    with open(os.path.join(cwd, name), "wb") as fh:
        fh.write(proc.stdout)


def first_sequences(split: str) -> list[str]:
    """The first sequence directory of each class of a `harpipe synth`
    split, in class-name order."""
    return [os.path.join(split, label, sorted(os.listdir(os.path.join(split, label)))[0])
            for label in sorted(os.listdir(split))]


def write_stream(seq_dirs: list[str], path: str) -> str:
    """Concatenate the pixels of the sequences' P5 frames, as written by
    `harpipe synth`, into one raw stream; return its WxH geometry."""
    geometry = set()
    with open(path, "wb") as out:
        for seq in seq_dirs:
            for name in sorted(os.listdir(seq)):
                with open(os.path.join(seq, name), "rb") as fh:
                    magic, size, maxval, pixels = fh.read().split(b"\n", 3)
                if magic != b"P5" or maxval != b"255":
                    raise SystemExit(f"{seq}/{name}: not an 8-bit P5 frame")
                geometry.add(size.decode().replace(" ", "x"))
                out.write(pixels)
    if len(geometry) != 1:
        raise SystemExit(f"frames of more than one size: {sorted(geometry)}")
    return geometry.pop()


def write_rgb_stream(gray_path: str, path: str) -> None:
    """Write an RGB copy of a gray raw stream, with channels g, g // 2 and
    g // 3: over 0-255 their sum leaves each remainder mod 3 about equally
    often, so the loader's channel average rounds both down and up."""
    gray = np.fromfile(gray_path, dtype=np.uint8)
    rgb = np.stack([gray, gray // 2, gray // 3], axis=1)
    rgb.tofile(path)


def difference(a: bytes, b: bytes) -> float | None:
    """The largest absolute difference between the numeric tokens of two
    texts whose other text is equal; None when they cannot be matched."""
    try:
        ta, tb = a.decode(), b.decode()
    except UnicodeDecodeError:
        return None
    na, nb = NUMBER.findall(ta), NUMBER.findall(tb)
    if len(na) != len(nb) or NUMBER.split(ta) != NUMBER.split(tb):
        return None
    worst = 0.0
    for x, y in zip(na, nb):
        if x != y:
            d = abs(float(x) - float(y))
            if not d >= 0:  # NaN against a number
                return None
            worst = max(worst, d)
    return worst


def compare(old: str, new: str) -> str:
    """Compare two files, or two directories file by file."""
    if os.path.isdir(old):
        names = sorted(os.listdir(old))
        if names != sorted(os.listdir(new)):
            return "differs"
        pairs = [(os.path.join(old, n), os.path.join(new, n)) for n in names]
    else:
        pairs = [(old, new)]
    worst = 0.0
    identical = True
    for a, b in pairs:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            da, db = fa.read(), fb.read()
        if da == db:
            continue
        identical = False
        d = difference(da, db)
        if d is None:
            return "differs"
        worst = max(worst, d)
    return "identical" if identical else f"max abs diff {worst:.3g}"


def main() -> int:
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    trees = dict(zip(("old", "new"), sys.argv[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus")
        os.makedirs(os.path.join(tmp, "old"))
        os.makedirs(os.path.join(tmp, "new"))
        run(trees["new"], tmp, "synth.out", ["synth", corpus, "--set", "seed=0"])
        train, test = os.path.join(corpus, "train"), os.path.join(corpus, "test")
        firsts = first_sequences(test)
        sequence = firsts[0]
        stream = os.path.join(tmp, "stream.raw")
        raw = ["--raw", write_stream(firsts[:STREAM_SEQUENCES], stream)]
        rgb_stream = os.path.join(tmp, "stream_rgb.raw")
        write_rgb_stream(stream, rgb_stream)
        steps = [
            ("train.out", ["train", train, "model.txt"]),
            ("train_probe40.out", ["train", train, "model_probe40.txt",
                                   "--set", "jacobian_probe_offset=40"]),
            ("evaluate.out", ["evaluate", test, "model.txt"]),
            ("classify.out", ["classify", sequence, "model.txt"]),
            ("sweep.out", ["sweep", train, test, "--values", "8", "10", "14"]),
            ("dump.out", ["dump", sequence] + [a for d in DUMPS for a in (f"--dump-{d}", d)]),
            ("dump_box3.out", ["dump", sequence, "--dump-features", "box3_features",
                               "--set", "tensor_half_window=3", "--set", "min_distance=0",
                               "--set", "feature_size=30"]),
            ("classify_raw.out", ["classify", stream, "model.txt"] + raw),
            ("classify_overlap.out", ["classify", stream, "model.txt", "--set",
                                      "window_stride=10", "--set", "flow_step=4"] + raw),
            ("classify_rgb.out", ["classify", rgb_stream, "model.txt",
                                  "--raw", raw[1] + ":rgb"]),
            ("dump_raw.out", ["dump", stream] + raw
             + [a for d in DUMPS for a in (f"--dump-{d}", f"raw_{d}")]),
            ("dump_k5.out", ["dump", stream] + raw + ["--dump-masks", "raw_masks_k5",
             "--set", "gmm_components=5", "--set", "gmm_threshold=1.0"]),
            ("dump_k1.out", ["dump", stream] + raw + ["--dump-masks", "raw_masks_k1",
             "--set", "gmm_components=1"]),
        ]
        for side, src in trees.items():
            for name, args in steps:
                print(f"{side}: harpipe {args[0]}", file=sys.stderr, flush=True)
                run(src, os.path.join(tmp, side), name, args)
        failed = False
        names = (["train.out", "model.txt", "model_probe40.txt"]
                 + [n for n, _ in steps[2:]] + list(DUMPS)
                 + ["box3_features"] + [f"raw_{d}" for d in DUMPS]
                 + ["raw_masks_k5", "raw_masks_k1"])
        for name in names:
            verdict = compare(os.path.join(tmp, "old", name), os.path.join(tmp, "new", name))
            failed |= verdict == "differs"
            print(f"{name:<20} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
