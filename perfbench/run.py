#!/usr/bin/env python3
"""harpipe benchmark.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up writes the workload's seeded inputs
under .perfbench_work/. Then rounds of the workload run one after another,
each in a fresh process, until their timed passes add up to S seconds;
every round's outputs are checked. The last stdout line is one JSON object:
correct, attempted, failed and the metrics, which are the end-to-end metrics
of BENCHMARK.json with --trace 0 and its per-layer metrics with --trace 1.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ROUND_TIMEOUT_S = 150


def run_round(job: dict, job_path: str) -> dict:
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    # One BLAS thread. With two on a two-core machine whose other core is
    # busy, a hidden-200 RPROP epoch took 16-24 ms instead of 1.2-1.6 ms, so
    # the figures would measure the neighbours rather than harpipe.
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                          env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {job['workload']} round exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "harpipe", "__init__.py")):
        raise SystemExit(f"perfbench: no harpipe sources under {SRC}")
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", wl.name)
    os.makedirs(work, exist_ok=True)

    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        inputs = wl.setup(work, args.seed)
        setup_times.append(time.perf_counter() - t0)

    rounds, passes, errors = [], [], []
    note = None
    while not rounds or sum(passes) < args.seconds:
        job = dict(wl.job(inputs), workload=wl.name, trace=bool(args.trace),
                   seconds=args.seconds - sum(passes))
        result = run_round(job, os.path.join(work, "job.json"))
        try:
            note = wl.check(inputs, result)
        except workloads.CheckFailed as e:
            errors.append(str(e))
        rounds.append(result)
        passes += result["passes_s"]
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)

    rates = [wl.units(inputs, r) / t for r in rounds for t in r["passes_s"]]
    print(f"perfbench: {wl.name} seed {args.seed}: {len(rates)} passes in "
          f"{len(rounds)} rounds, {wl.unit_name} "
          + " ".join(f"{r:.2f}" for r in rates) + (f"; {note}" if note else ""),
          file=sys.stderr)
    if args.trace:
        values = tracing.layer_metrics(tracing.merge([r["trace"] for r in rounds]),
                                       sum(passes))
        wanted = spec["per_layer"]
    else:
        values = {
            "throughput_per_s": statistics.median(rates),
            "setup_s": statistics.median(
                [r["setup_s"] for r in rounds] if "setup_s" in rounds[0]
                else setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise SystemExit(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(missing)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(passes) * wl.ops_per_pass,
        "failed": 0,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
