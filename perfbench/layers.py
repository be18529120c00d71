"""Which package functions the traced run wraps, and the per-layer
metrics it derives from their spans and counters.

Every wrapper sits at the module attribute the caller looks up: the
LSTM calls the activation through `brownian_lstm.lstm.forward`, the
training loop calls the LSTM through `brownian_lstm.training.
sequence_forward`, the harness calls `train` and `evaluate` through
`brownian_lstm.experiments`, and so on.  The layers are the package's
modules.
"""

from __future__ import annotations

import os
from collections import defaultdict

# (name, unit); BENCHMARK.json lists the same names under per_layer.
PER_LAYER = (
    ("numerics.normals_drawn", "count"),
    ("numerics.standard_normals.calls", "count"),
    ("numerics.standard_normals.self_s", "s"),
    ("activations.forward.calls", "count"),
    ("activations.forward.elements", "count"),
    ("activations.forward.self_s", "s"),
    ("activations.backward.calls", "count"),
    ("activations.backward.self_s", "s"),
    ("activations.neg_fraction", "ratio"),
    ("lstm.sequence_forward.calls", "count"),
    ("lstm.sequence_forward.self_s", "s"),
    ("lstm.backward_bptt.calls", "count"),
    ("lstm.backward_bptt.self_s", "s"),
    ("lstm.trace_bytes", "bytes"),
    ("lstm.checkpoint_s", "s"),
    ("training.train.self_s", "s"),
    ("training.optimizer_step.calls", "count"),
    ("training.optimizer_step.self_s", "s"),
    ("training.clip_gradients.self_s", "s"),
    ("training.clip_fired_ratio", "ratio"),
    ("training.evaluate.calls", "count"),
    ("training.evaluate.self_s", "s"),
    ("training.epochs", "count"),
    ("experiments.cells", "count"),
    ("experiments.harness.self_s", "s"),
    ("experiments.report_write_s", "s"),
    ("experiments.report_bytes", "bytes"),
    ("data.self_s", "s"),
    ("metrics.self_s", "s"),
    ("trace.overhead_s", "s"),
)

_DATA_FUNCTIONS = ("synth_sine_trend", "minmax_normalize", "make_windows",
                   "chronological_split")


def held_bytes(obj) -> int:
    """Bytes of the distinct array buffers reachable from obj.

    Views count as the array they view, once, because they keep that
    whole buffer alive."""
    import numpy as np

    buffers: dict[int, int] = {}
    seen: set[int] = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            buffers[id(item)] = item.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return sum(buffers.values())


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _normals(tracer, span, args, kwargs, result):
    tracer.counts["normals_drawn"] += len(result)


def _activation(tracer, span, args, kwargs, result):
    import numpy as np

    kind = _arg(args, kwargs, 0, "kind")
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    tracer.counts["act_elements"] += x.size
    tracer.counts["act_neg"] += int(np.count_nonzero(x <= 0.0))
    tracer.set_tag(span, f"{kind.name},{'x'.join(map(str, x.shape))}")


def _sequence_forward(tracer, span, args, kwargs, result):
    prediction, trace = result
    kind = _arg(args, kwargs, 2, "kind")
    tracer.set_tag(span, f"{kind.name},B={prediction.shape[1]}")
    tracer.maxima["trace_bytes"] = max(tracer.maxima["trace_bytes"],
                                       held_bytes(trace))


def _bptt(tracer, span, args, kwargs, result):
    kind = _arg(args, kwargs, 1, "trace").kind
    batch = _arg(args, kwargs, 2, "d_pred").shape[-1]
    tracer.set_tag(span, f"{kind.name},B={batch}")


def _clip(tracer, span, args, kwargs, result):
    max_norm = _arg(args, kwargs, 1, "max_norm")
    tracer.counts["clip_steps"] += 1
    tracer.counts["clip_fired"] += int(max_norm > 0.0 and result > max_norm)


def _train(tracer, span, args, kwargs, result):
    tracer.lists["epochs"].append(result[1].executed_epochs)


def _report(tracer, span, args, kwargs, result):
    tracer.counts["report_bytes"] += sum(os.path.getsize(p) for p in result)


def patches(bl) -> list[tuple]:
    """(owner, attribute, span name, after-hook) for Tracer.installed."""
    lstm, training, experiments = bl.lstm, bl.training, bl.experiments
    table = [
        (bl.numerics.RngStream, "standard_normals",
         "numerics.standard_normals", _normals),
        (lstm, "forward", "activations.forward", _activation),
        (lstm, "backward_input", "activations.backward", None),
        (lstm, "backward_alpha", "activations.backward", None),
        (training, "sequence_forward", "lstm.sequence_forward",
         _sequence_forward),
        (training, "backward_bptt", "lstm.backward_bptt", _bptt),
        (lstm, "save_checkpoint", "lstm.checkpoint", None),
        (lstm, "load_checkpoint", "lstm.checkpoint", None),
        (training, "optimizer_step", "training.optimizer_step", None),
        (training, "clip_gradients", "training.clip_gradients", _clip),
        (training, "evaluate", "training.evaluate", None),
        (experiments, "evaluate", "training.evaluate", None),
        (experiments, "train", "training.train", _train),
        (experiments, "run_comparison", "experiments.harness", None),
        (experiments.ExperimentReport, "write", "experiments.report_write",
         _report),
        (training, "r2", "metrics.r2", None),
        (experiments, "r2", "metrics.r2", None),
    ]
    for module in (bl.data, experiments):
        table += [(module, fn, f"data.{fn}", None) for fn in _DATA_FUNCTIONS
                  if hasattr(module, fn)]
    return table


def raw_counts(tracer) -> dict[str, float]:
    """Flat additive totals of one traced segment: per span name its
    calls, self and inclusive seconds, plus the hooks' counters.  Keys
    starting with 'max.' combine by maximum instead of sum."""
    out: dict[str, float] = defaultdict(float)
    for name, row in tracer.summary()["by_name"].items():
        out[f"{name}.calls"] += row["calls"]
        out[f"{name}.self_s"] += row["self_s"]
        out[f"{name}.incl_s"] += row["incl_s"]
        if name.startswith("data."):
            out["data.self_s"] += row["self_s"]
    out.update(tracer.counts)
    out["cells"] = len(tracer.lists["epochs"])
    out["epochs"] = sum(tracer.lists["epochs"])
    for key, value in tracer.maxima.items():
        out[f"max.{key}"] = value
    return out


def combine(a: dict, b: dict) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float, a)
    for key, value in b.items():
        out[key] = max(out[key], value) if key.startswith("max.") \
            else out[key] + value
    return out


def per_layer(raw: dict, overhead_s: float) -> dict[str, float]:
    """The PER_LAYER metrics from the combined totals of set-up plus
    one traced round."""
    r = defaultdict(float, raw)

    def share(num: str, den: str) -> float:
        return r[num] / r[den] if r[den] else 0.0

    values = {
        "numerics.normals_drawn": r["normals_drawn"],
        "activations.forward.elements": r["act_elements"],
        "activations.neg_fraction": share("act_neg", "act_elements"),
        "lstm.trace_bytes": r["max.trace_bytes"],
        "lstm.checkpoint_s": r["lstm.checkpoint.incl_s"],
        "training.clip_fired_ratio": share("clip_fired", "clip_steps"),
        "training.epochs": share("epochs", "cells"),
        "experiments.cells": r["cells"],
        "experiments.report_write_s": r["experiments.report_write.incl_s"],
        "experiments.report_bytes": r["report_bytes"],
        "data.self_s": r["data.self_s"],
        "metrics.self_s": r["metrics.r2.self_s"],
        "trace.overhead_s": overhead_s,
    }
    for name, _ in PER_LAYER:
        if name not in values:
            values[name] = r[name]
    return values
