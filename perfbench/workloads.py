"""The benchmark's workloads, driven through brownian_lstm's public API.

Each workload has a set-up (package import, data generation and
windowing, and for scoring a checkpoint save and load) and a round, the
unit of work that is repeated until the run's time is up:

- train-brownian: one `run_comparison` cell at the paper configuration
  (sine series of 1500 points, lookback 60, hidden 50, brownian with
  M = 1000 collapsed, learned alpha, Adam, batch 32).
- compare-six: the six-way `run_comparison` on the same data.
- score-brownian: one forward-only pass of `evaluate` in 256-window
  calls over every window of a long sine series, with the model read
  back from a checkpoint.

Training rounds fix the epoch count with patience >= max_epochs, so the
work does not depend on early stopping.  Every round writes its report
CSV and JSON; rounds of one seed must write identical bytes.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

from checks import nonfinite_cells, report_digest

EPOCHS = 2
LOOKBACK = 60
HIDDEN = 50
M = 1000
BATCH = 32
TRAIN_POINTS = 1500
SCORE_WINDOWS = 6144
SCORE_CHUNK = 256
SCORE_STREAM = 59
SIX = ("brownian", "relu", "leaky_relu", "prelu", "tanh", "gelu")


def import_package(root: str):
    """Import brownian_lstm from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import brownian_lstm

    origin = os.path.realpath(brownian_lstm.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"brownian_lstm was imported from {origin}, "
                          f"not from {src}")
    return brownian_lstm


@dataclass
class Round:
    """Outcome of one round.  wall_s is the time spent inside the
    package's harness or scoring calls; round_s adds report writing and
    checks."""

    ops: int
    failed: int
    wall_s: float
    round_s: float
    sequences: int
    op_latencies_s: list[float]
    digest: str
    report_bytes: int
    problems: list[str] = field(default_factory=list)


def _write_report(report, workdir: str, name: str):
    paths = report.write(workdir, name)
    return report_digest(paths), sum(os.path.getsize(p) for p in paths)


def _sine_windows(bl, seed: int, points: int):
    series = bl.experiments.parse_synth_spec(f"sine:{seed},{points}")
    data = bl.data
    norm, lo, hi = data.minmax_normalize(series.values)
    return data.make_windows(norm, LOOKBACK, lo, hi)


class TrainWorkload:
    """One run_comparison call per round over the given activations."""

    def __init__(self, name: str, activations: tuple[str, ...]):
        self.name = name
        self.activations = activations

    def ops_per_round(self) -> int:
        return len(self.activations)

    def prepare(self, bl, seed: int, workdir: str) -> dict:
        config = bl.experiments.ExperimentConfig(
            synth=f"sine:{seed},{TRAIN_POINTS}",
            activations=self.activations, m_values=(M,), alphas="learned",
            lookback=LOOKBACK, hidden_dim=HIDDEN, sampling="collapsed",
            seeds=(seed,), out_dir=workdir,
            train=bl.training.TrainConfig(max_epochs=EPOCHS,
                                          patience=EPOCHS,
                                          batch_size=BATCH,
                                          optimizer="adam"))
        # The harness repeats this split internally; the benchmark needs
        # the training-set size to count sequence-epochs.
        windows = _sine_windows(bl, seed, TRAIN_POINTS)
        train_full, _ = bl.data.chronological_split(windows, config.split)
        train, _ = bl.data.chronological_split(
            train_full, 1.0 - config.val_fraction)
        return {"bl": bl, "config": config, "workdir": workdir,
                "n_train": len(train)}

    def run_round(self, state: dict) -> Round:
        bl, config = state["bl"], state["config"]
        t0 = time.perf_counter()
        report = bl.experiments.run_comparison(config)
        wall = time.perf_counter() - t0
        digest, size = _write_report(report, state["workdir"], "comparison")

        cells = len(self.activations)
        problems = []
        if len(report.rows) != cells:
            problems.append(f"{len(report.rows)} report rows for {cells} "
                            f"cells")
        bad_rows = {r for r, _ in nonfinite_cells(report.rows)}
        epoch_col = report.header.index("Epoch of convergence")
        for r, row in enumerate(report.rows):
            if not 1 <= row[epoch_col] <= EPOCHS:
                bad_rows.add(r)
        if bad_rows:
            problems.append(f"rows {sorted(bad_rows)} have a non-finite "
                            f"value or an epoch outside 1..{EPOCHS}")
        failed = cells if len(report.rows) != cells else len(bad_rows)
        return Round(ops=cells, failed=failed, wall_s=wall,
                     round_s=time.perf_counter() - t0,
                     sequences=state["n_train"] * EPOCHS * cells,
                     op_latencies_s=[wall / cells], digest=digest,
                     report_bytes=size, problems=problems)


class ScoreWorkload:
    """Forward-only scoring of a checkpointed brownian model."""

    name = "score-brownian"

    def ops_per_round(self) -> int:
        return SCORE_WINDOWS // SCORE_CHUNK

    def prepare(self, bl, seed: int, workdir: str) -> dict:
        windows = _sine_windows(bl, seed, SCORE_WINDOWS + LOOKBACK)
        lstm = bl.lstm
        params = lstm.init_params(1, HIDDEN, 1, seed=seed)
        kind = bl.activations.ActivationKind.brownian(m=M)
        path = os.path.join(workdir, "model.json")
        lstm.save_checkpoint(path, params, kind)
        loaded, loaded_kind = lstm.load_checkpoint(path)
        same = (loaded_kind == kind and loaded.alpha == params.alpha
                and all((loaded.arrays()[k] == v).all()
                        for k, v in params.arrays().items()))
        if not same:
            raise RuntimeError("checkpoint round trip changed the model")
        chunks = [(windows.inputs[i:i + SCORE_CHUNK],
                   windows.targets[i:i + SCORE_CHUNK])
                  for i in range(0, SCORE_WINDOWS, SCORE_CHUNK)]
        return {"bl": bl, "params": loaded, "kind": loaded_kind,
                "seed": seed, "workdir": workdir, "chunks": chunks,
                "config": bl.training.TrainConfig()}

    def run_round(self, state: dict) -> Round:
        bl = state["bl"]
        rng = bl.numerics.RngStream(state["seed"], SCORE_STREAM)
        t0 = time.perf_counter()
        latencies, preds = [], []
        failed = 0
        for inputs, targets in state["chunks"]:
            t = time.perf_counter()
            loss, pred = bl.training.evaluate(state["params"], state["kind"],
                                              inputs, targets,
                                              state["config"], rng)
            latencies.append(time.perf_counter() - t)
            values = pred.tolist()
            if not (math.isfinite(loss) and len(values) == len(targets)
                    and all(map(math.isfinite, values))):
                failed += 1
            preds.extend(values)
        report = bl.experiments.ExperimentReport(
            "scores", ("Window", "Prediction"),
            [[i, p] for i, p in enumerate(preds)])
        digest, size = _write_report(report, state["workdir"], "scores")
        problems = [f"{failed} scoring calls gave a non-finite or "
                    f"misshapen result"] if failed else []
        return Round(ops=len(latencies), failed=failed,
                     wall_s=sum(latencies), round_s=time.perf_counter() - t0,
                     sequences=len(preds), op_latencies_s=latencies,
                     digest=digest, report_bytes=size, problems=problems)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (TrainWorkload("train-brownian", ("brownian",)),
                        TrainWorkload("compare-six", SIX),
                        ScoreWorkload())
}
