#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Usage: python3 perfbench/selftest.py   (from the root of a checkout)

Runs one round of each workload on seed 0, shows that its check passes on
the real outputs, then corrupts the outputs one way at a time (a swapped
label, a perturbed weight, a flipped mask bit, ...) and shows that the check
fails on each. Exits 1 if any check passes a corrupted output. Takes about
a minute.
"""

import copy
import os
import re
import sys

import run

sys.path[:0] = [run.SRC, os.path.join(run.ROOT, "tests")]
import numpy as np  # noqa: E402

import workloads as wls  # noqa: E402

WORK = os.path.join(run.ROOT, ".perfbench_work", "selftest")


def one_round(wl):
    work = os.path.join(WORK, wl.name)
    os.makedirs(work, exist_ok=True)
    inputs = wl.setup(work, 0)
    job = dict(wl.job(inputs), workload=wl.name, trace=False, seconds=0.0)
    result = run.run_round(job, os.path.join(work, "job.json"))
    note = wl.check(inputs, result)
    print(f"{wl.name}: real outputs pass" + (f" ({note})" if note else ""))
    return inputs, result


def fails(what: str, check) -> bool:
    try:
        check()
    except wls.CheckFailed as e:
        print(f"  caught {what}: {e}")
        return True
    print(f"  MISSED {what}: the check passed")
    return False


def train_eval() -> list[bool]:
    wl = wls.WORKLOADS["train_eval"]
    _, result = one_round(wl)
    train_out, eval_out = result["train_out"], result["eval_out"]

    def check(t=train_out, e=eval_out):
        wls.check_train_eval(t, e, wl.TRAIN, wl.TEST)

    total = int(re.search(r"^samples total: (\d+)$", train_out, re.M).group(1))
    rows = re.findall(r"^csv,([A-Z][a-z]+),(\d+),(\d+),(\d+),(\d+),", eval_out, re.M)
    matrix = [[int(c) for c in row[1:]] for row in rows]

    def with_matrix(m):
        out = eval_out
        for (name, *_), old, new in zip(rows, matrix, m):
            out = out.replace(f"csv,{name},{','.join(map(str, old))},",
                              f"csv,{name},{','.join(map(str, new))},")
        return out

    # two rows whose swap changes the matrix's trace
    a, b = next((a, b) for a in range(4) for b in range(a + 1, 4)
                if matrix[a][b] + matrix[b][a] != matrix[a][a] + matrix[b][b])
    swapped = [row[:] for row in matrix]
    swapped[a], swapped[b] = matrix[b], matrix[a]
    # one of the first class's sequences counted in the second class's row
    k = matrix[0].index(max(matrix[0]))
    moved = [row[:] for row in matrix]
    moved[0][k] -= 1
    moved[1][k] += 1
    extra = [row[:] for row in matrix]
    extra[0][0] += 1
    return [
        fails("a swapped label in the evaluate report",
              lambda: check(e=with_matrix(swapped))),
        fails("a sample total off by one",
              lambda: check(t=train_out.replace(f"samples total: {total}",
                                                f"samples total: {total + 1}"))),
        fails("a confusion-matrix count off by one",
              lambda: check(e=with_matrix(extra))),
        fails("a test sequence counted under another class",
              lambda: check(e=with_matrix(moved))),
        fails("a per-class sample count off by one",
              lambda: check(t=re.sub(r"^samples boxing: (\d+)$",
                                     lambda m: f"samples boxing: {int(m.group(1)) + 1}",
                                     train_out, flags=re.M))),
    ]


def mlp_search() -> list[bool]:
    wl = wls.WORKLOADS["mlp_search"]
    inputs, result = one_round(wl)
    held_out = np.load(inputs["held_out"])
    labels = result["held_out_labels"]

    def check(models):
        wls.check_mlp_search(models, held_out, labels)

    # push the output bias of the class the model predicts least: every
    # window then goes to that class
    first = result["models"][-1]
    target = int(np.argmin(np.bincount(first["predictions"], minlength=4)))
    with open(first["path"]) as fh:
        lines = fh.read().splitlines()
    bias = [float(v) for v in lines[-1].split()]
    bias[target] += 20.0
    lines[-1] = " ".join(repr(v) for v in bias)
    perturbed = first["path"] + ".perturbed"
    with open(perturbed, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    def with_model(**changes):
        models = copy.deepcopy(result["models"])
        models[-1].update(changes)
        return models

    return [
        fails("a grid pass that gave other models",
              lambda: wl.check(inputs, dict(result, passes_differing=1))),
        fails("a perturbed weight", lambda: check(with_model(path=perturbed))),
        fails("a final loss not below the first",
              lambda: check(with_model(final_loss=first["first_loss"]))),
        fails("a missing prediction",
              lambda: check(with_model(predictions=first["predictions"][:-1]))),
        fails("swapped held-out labels",
              lambda: wls.check_mlp_search(result["models"], held_out,
                                           [(c + 1) % 4 for c in labels])),
    ]


def masks_stream() -> list[bool]:
    wl = wls.WORKLOADS["masks_stream"]
    inputs, _ = one_round(wl)
    masks = wls.read_masks(inputs["masks_dir"])
    frames = inputs["frames"]
    y, x = wl.SAMPLE_Y[0], wl.SAMPLE_X[0]

    def check(m=masks, resized=frames):
        wls.check_masks(m, resized, frames, wl.SAMPLE_Y, wl.SAMPLE_X)

    def flipped(bit):
        m = [a.copy() for a in masks]
        m[10][y, x] ^= bit
        return m

    def later_round_differs():
        path = os.path.join(inputs["masks_dir"], "mask_00010.pgm")
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)[0]
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([255 - last]))
        wl.check(inputs, None)

    resized = frames.copy()
    resized[5, 0, 0] ^= 1
    return [
        fails("a flipped mask bit", lambda: check(m=flipped(0x01))),
        fails("a flipped mask pixel", lambda: check(m=flipped(0xFF))),
        fails("a missing mask", lambda: check(m=masks[:-1])),
        fails("a resized frame off by one level", lambda: check(resized=resized)),
        fails("a later round's mask differing from the first round's",
              later_round_differs),
    ]


def main() -> int:
    results = train_eval() + mlp_search() + masks_stream()
    print(f"{sum(results)} of {len(results)} corruptions caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
