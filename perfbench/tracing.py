"""Outside-in per-layer trace of harpipe.

``Tracer.install()`` replaces every public function of the traced modules,
and every public method of the classes they define, with a wrapper that
opens a span around the call. Spans nest on a stack, so each one knows the
span that caused it; the tracer keeps, per function, the call count, the
inclusive time, the self time (inclusive minus the time of child spans) and
the number of calls that raised. A few functions also feed counters
(points detected, tracks kept, slots filled). Nothing under ``src/`` is
edited: the wrappers are installed from here, in the workload's own process,
and the aggregate is written out when the workload ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("frameio", "bgmodel", "goodfeat", "lkflow", "flowdesc", "pipeline",
          "mlp", "cli")

JACOBIAN = "flowdesc.flow_jacobian"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _observe_detect(counts, args, kwargs, result, parent):
    counts["goodfeat.points"] += len(result)


def _observe_track(counts, args, kwargs, result, parent):
    # a track made on behalf of flow_jacobian is a Jacobian probe at p +- h
    counts["lkflow.probe" if parent == JACOBIAN else "lkflow.centre"] += 1
    counts["lkflow.tracked"] += result.tracked


def _observe_aggregate(counts, args, kwargs, result, parent):
    slots = _arg(args, kwargs, 0, "slot_descriptors")
    n_slots = _arg(args, kwargs, 1, "n_slots")
    steps = _arg(args, kwargs, 2, "steps_per_window")
    # aggregate_sample keeps a slot only if it was tracked for more than
    # half of the window's steps
    counts["flowdesc.slots"] += n_slots
    counts["flowdesc.slots_filled"] += sum(
        2 * len(d) > steps for d in slots[:n_slots])


OBSERVERS = {
    "goodfeat.detect_good_features": _observe_detect,
    "lkflow.track_point": _observe_track,
    "flowdesc.aggregate_sample": _observe_aggregate,
}


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive s, self s, raised]
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [child seconds, name]

    def _span(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = [0.0, name]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - span[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(counts, args, kwargs, result, parent)
            return result

        return wrapper

    def _frames(self, fn):
        """load_sequence is a generator: each resumption is one span, named
        by the input kind, so raw reads and PNM reads are told apart."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            raw = _arg(args, kwargs, 2, "raw")
            name = "frameio.load_sequence" + (".raw" if raw else ".pnm")
            resume = self._span(name, functools.partial(next, fn(*args, **kwargs)))
            while True:
                try:
                    frame = resume()
                except StopIteration:
                    return
                self.counts[name + ".frames"] += 1
                yield frame

        return wrapper

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"harpipe.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if inspect.isgeneratorfunction(obj):
                        wrapped = self._frames(obj)
                    else:
                        name = f"{layer}.{attr}"
                        wrapped = self._span(name, obj, OBSERVERS.get(name))
                    setattr(mod, attr, wrapped)
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth,
                                    self._span(f"{layer}.{attr}.{meth}", fn))
        # names bound by ``from .x import f`` hold the original function
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("harpipe.") and mod is not None:
                for attr, obj in list(vars(mod).items()):
                    original, wrapped = replaced.get(id(obj), (None, None))
                    if obj is original:
                        setattr(mod, attr, wrapped)

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counts": dict(self.counts)}


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several rounds."""
    stats: dict[str, list] = {}
    counts: Counter = Counter()
    for snap in snapshots:
        for name, row in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        counts.update(snap["counts"])
    return {"stats": stats, "counts": dict(counts)}


def layer_metrics(snap: dict, timed_s: float) -> dict[str, float]:
    """Per-layer metrics from a (merged) snapshot and the timed-phase
    seconds it covers. A metric whose base is zero reads 0."""
    stats, counts = snap["stats"], snap["counts"]

    def calls(name):
        return stats.get(name, [0])[0]

    def incl(name):
        return stats.get(name, [0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def per(total, n, scale=1.0):
        return scale * total / n if n else 0.0

    module_self = {layer: sum(row[2] for name, row in stats.items()
                              if name.split(".", 1)[0] == layer)
                   for layer in LAYERS}
    frames_pnm = counts.get("frameio.load_sequence.pnm.frames", 0)
    frames_raw = counts.get("frameio.load_sequence.raw.frames", 0)
    centre = counts.get("lkflow.centre", 0)
    probe = counts.get("lkflow.probe", 0)
    windows = calls("pipeline.extract_window_sample")
    epochs = calls("mlp.rprop_step")
    detect = "goodfeat.detect_good_features"
    update = "bgmodel.BackgroundModel.update_and_classify"

    m = {
        "frameio.decode_ms_per_frame": per(incl("frameio.decode_pnm"),
                                           calls("frameio.decode_pnm"), 1e3),
        "frameio.frames": frames_pnm + frames_raw,
        "frameio.raw_ms_per_frame": per(self_s("frameio.load_sequence.raw"),
                                        frames_raw, 1e3),
        "frameio.resize_ms_per_frame": per(incl("frameio.resize_bilinear"),
                                           calls("frameio.resize_bilinear"), 1e3),
        "bgmodel.update_ms_per_frame": per(incl(update), calls(update), 1e3),
        "bgmodel.calls": calls(update),
        "goodfeat.detect_ms_per_call": per(incl(detect), calls(detect), 1e3),
        "goodfeat.calls": calls(detect),
        "goodfeat.points_per_call": per(counts.get("goodfeat.points", 0),
                                        calls(detect)),
        "lkflow.pyramid_ms_per_call": per(incl("lkflow.build_pyramid"),
                                          calls("lkflow.build_pyramid"), 1e3),
        "lkflow.pyramid_calls": calls("lkflow.build_pyramid"),
        "lkflow.track_us_per_call": per(incl("lkflow.track_point"),
                                        calls("lkflow.track_point"), 1e6),
        "lkflow.track_calls_centre": centre,
        "lkflow.track_calls_probe": probe,
        "lkflow.tracked_ratio": per(counts.get("lkflow.tracked", 0),
                                    centre + probe),
        "flowdesc.jacobian_self_us_per_call": per(self_s(JACOBIAN),
                                                  calls(JACOBIAN), 1e6),
        "flowdesc.jacobian_calls": calls(JACOBIAN),
        "flowdesc.jacobian_fallbacks": stats.get(JACOBIAN, [0, 0, 0, 0])[3],
        "flowdesc.aggregate_us_per_window": per(
            incl("flowdesc.aggregate_sample"),
            calls("flowdesc.aggregate_sample"), 1e6),
        "flowdesc.slots_filled_ratio": per(counts.get("flowdesc.slots_filled", 0),
                                           counts.get("flowdesc.slots", 0)),
        "pipeline.window_ms": per(incl("pipeline.extract_window_sample"),
                                  windows, 1e3),
        "pipeline.self_ms_per_window": per(module_self["pipeline"], windows, 1e3),
        "pipeline.windows": windows,
        "mlp.backprop_ms_per_call": per(incl("mlp.backprop"),
                                        calls("mlp.backprop"), 1e3),
        "mlp.rprop_step_ms_per_call": per(incl("mlp.rprop_step"), epochs, 1e3),
        "mlp.train_self_ms_per_epoch": per(self_s("mlp.train"), epochs, 1e3),
        "mlp.predict_us_per_call": per(incl("mlp.predict"),
                                       calls("mlp.predict"), 1e6),
        "mlp.predict_calls": calls("mlp.predict"),
        "mlp.save_ms": per(incl("mlp.save_model"), calls("mlp.save_model"), 1e3),
        "mlp.load_ms": per(incl("mlp.load_model"), calls("mlp.load_model"), 1e3),
        "cli.train_s": incl("cli.cmd_train"),
        "cli.evaluate_s": incl("cli.cmd_evaluate"),
        "cli.dump_s": incl("cli.cmd_dump"),
        "cli.self_s": module_self["cli"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = per(module_self[layer], timed_s)
    return m
