"""One round of one workload, in a fresh process.

Usage: worker.py JOB.json

JOB.json names the workload, its input and output paths and whether to
trace. The clock starts before harpipe (and with it numpy) is imported, so
no import or warm-up work can hide outside the timed phase. The last line of
stdout is one JSON object: the phase timings, the peak RSS of this process,
the outputs the checks need, and the trace aggregate when tracing.

A round is one timed pass, except on mlp_search: its set-up (import and
descriptor extraction) costs far more than a pass over the grid, so it is
done once and the grid is trained in passes until the run's seconds are
spent.
"""

import contextlib
import io
import json
import os
import sys
import time

T0 = time.perf_counter()


def _cli(cli, argv: list[str]) -> str:
    """Run one harpipe command; return its stdout report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"harpipe {argv[0]} exited with {rc}")
    return out.getvalue()


def train_eval(job: dict, tracer) -> dict:
    from harpipe import cli
    if tracer:
        tracer.install()
    model = job["model"]
    train_out = _cli(cli, ["train", job["train_dir"], model])
    eval_out = _cli(cli, ["evaluate", job["test_dir"], model])
    return {"passes_s": [time.perf_counter() - T0],
            "train_out": train_out, "eval_out": eval_out}


def masks_stream(job: dict, tracer) -> dict:
    from harpipe import cli
    if tracer:
        tracer.install()
    out = _cli(cli, ["dump", job["stream"], "--raw", job["raw"],
                     "--dump-masks", job["masks_dir"]])
    return {"passes_s": [time.perf_counter() - T0], "dump_out": out}


def mlp_search(job: dict, tracer) -> dict:
    import dataclasses

    import numpy as np

    from harpipe import frameio, mlp, pipeline
    from harpipe.config import PipelineConfig
    from harpipe.flowdesc import DESCRIPTOR_DIM

    # set-up: descriptors once, at the largest feature size; a smaller
    # feature size is a prefix of the same sample (greedy selection)
    cfg = dataclasses.replace(PipelineConfig(), feature_size=max(job["sizes"]))

    def extract(split_dir):
        xs, ys = [], []
        for label in mlp.ACTION_LABELS:
            class_dir = os.path.join(split_dir, label)
            for seq in sorted(os.listdir(class_dir)):
                frames = list(frameio.load_sequence(os.path.join(class_dir, seq)))
                for _, sample in pipeline.sequence_samples(frames, cfg, label=label):
                    xs.append(sample.values)
                    ys.append(mlp.label_index(label))
        return np.array(xs), np.array(ys)

    x_train, y_train = extract(job["train_dir"])
    x_test, y_test = extract(job["test_dir"])
    setup_s = time.perf_counter() - T0

    if tracer:
        tracer.install()
    # the grid is trained again and again until the passes add up to the
    # run's seconds; every pass must give the same models
    passes_s, models, differing = [], None, 0
    while not passes_s or sum(passes_s) < job["seconds"]:
        t_pass = time.perf_counter()
        grid = []
        for hidden in job["hidden"]:
            for n in job["sizes"]:
                dim = n * DESCRIPTOR_DIM
                model = mlp.init_model([dim, hidden, len(mlp.ACTION_LABELS)],
                                       seed=job["model_seed"])
                loss = mlp.train(model, x_train[:, :dim], y_train,
                                 epochs=job["epochs"], rprop=mlp.init_rprop(model))
                path = os.path.join(job["models_dir"], f"h{hidden}_n{n}.txt")
                mlp.save_model(model, path)
                loaded = mlp.load_model(path)
                preds = [mlp.predict(loaded, x[:dim])[0] for x in x_test]
                grid.append({"hidden": hidden, "n": n, "path": path,
                             "first_loss": loss[0], "final_loss": loss[-1],
                             "epochs": len(loss), "predictions": preds})
        passes_s.append(time.perf_counter() - t_pass)
        if models is None:
            models = grid
        differing += grid != models
    np.save(job["held_out"], x_test)
    return {"setup_s": setup_s, "passes_s": passes_s, "models": models,
            "passes_differing": differing, "held_out_labels": y_test.tolist()}


def peak_rss_mb() -> float:
    """Peak RSS of this process image. ru_maxrss would also count the
    parent's RSS at the time it spawned this process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


WORKLOADS = {"train_eval": train_eval, "masks_stream": masks_stream,
             "mlp_search": mlp_search}


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    result = WORKLOADS[job["workload"]](job, tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
