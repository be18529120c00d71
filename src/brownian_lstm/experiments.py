"""Experiment harnesses: M-sensitivity, activation comparison,
classification, and activation-path figures.

Every harness takes an ExperimentConfig, runs a deterministic grid of
training cells, and returns an ExperimentReport whose rows follow a
fixed tabular schema (per-seed rows, then a 'mean' row per group when
several seeds ran).  Reports serialize to CSV with 6-decimal
fixed-point floats and to JSON at full precision with a format_version
tag; rerunning a harness with the same config reproduces both files
byte for byte.

Fairness across activations inside one comparison: the dataset, the
chronological split, and the initial weight draws depend only on the
data spec and the seed, never on the activation, so rows differ only
through the activation itself (and the noise it consumes).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import types
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .activations import ActivationKind, forward
from .data import (PriceSeries, SequenceDataset, TabularDataset,
                   chronological_split, load_csv_prices, load_csv_tabular,
                   make_windows, minmax_normalize, synth_gbm,
                   synth_sine_trend, synth_tabular)
from .lstm import LstmParams, init_params
from .metrics import confusion_metrics, r2, roc_auc
from .numerics import RngStream, join_read_ahead, write_text
from .svgplot import line_plot
from .training import TrainConfig, TrainHistory, evaluate, train

FORMAT_VERSION = 1
DEFAULT_ALPHA = 0.25
REGRESSION_HEADER = ("Dataset", "Seed", "Activation Function", "M", "Alpha",
                     "MSE", "R2(Train)", "R2(Test)",
                     "Epoch of convergence")
CLASSIFICATION_HEADER = ("Dataset", "Seed", "Activation Function", "Alpha",
                         "Accuracy", "Precision", "Recall", "F1-score",
                         "ROC-AUC")
BASELINE_ACTIVATIONS = ("relu", "leaky_relu", "prelu", "tanh", "gelu")

_TEST_EVAL_STREAM = 31
_TRAIN_EVAL_STREAM = 37
_PATHS_STREAM = 41


class ConfigError(ValueError):
    """A configuration problem the caller should fix (CLI exit 2)."""


@dataclass
class ExperimentConfig:
    """Shared settings for the experiment harnesses.

    Exactly one of data_path / synth names the dataset.  synth uses the
    grammar 'gbm:seed,n[,s0,mu,sigma]', 'sine:seed,n[,s0,mu,sigma,
    amplitude,period,noise_std]', or 'tab:seed,n,d[,positive_rate]'.
    alphas is either the string 'learned' or a tuple of fixed values
    applied to the brownian activation with its gradient frozen.
    """

    data_path: str | None = None
    synth: str | None = None
    value_column: str = "Close"
    label_column: str = "label"
    activations: tuple[str, ...] = ("brownian", "relu", "leaky_relu",
                                    "prelu", "tanh", "gelu")
    m_values: tuple[int, ...] = (500, 1000, 1500)
    alphas: tuple[float, ...] | str = "learned"
    lookback: int = 60
    split: float = 0.8
    val_fraction: float = 0.1
    norm_scope: str = "full"
    sampling: str = "collapsed"
    hidden_dim: int = 50
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "."
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.data_path is not None and self.synth is not None:
            raise ConfigError("pass either a data path or a synth spec, "
                              "not both")
        if not (0.0 < self.split < 1.0):
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError(
                f"val_fraction must be in (0, 1), got {self.val_fraction}"
            )
        if self.lookback < 1:
            raise ConfigError(f"lookback must be >= 1, got {self.lookback}")
        if self.hidden_dim < 1:
            raise ConfigError(
                f"hidden_dim must be >= 1, got {self.hidden_dim}"
            )
        if self.norm_scope not in ("full", "train"):
            raise ConfigError(f"unknown norm_scope '{self.norm_scope}'")
        if self.sampling not in ("collapsed", "explicit"):
            raise ConfigError(f"unknown sampling mode '{self.sampling}'")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if isinstance(self.alphas, str):
            if self.alphas != "learned":
                raise ConfigError(
                    f"alphas must be 'learned' or a tuple, got "
                    f"'{self.alphas}'"
                )
        elif not self.alphas:
            raise ConfigError("alpha list is empty")
        elif not all(math.isfinite(a) for a in self.alphas):
            raise ConfigError(f"alphas must be finite, got {self.alphas}")


@dataclass
class ExperimentReport:
    """Tabular result of one harness run.

    rows hold typed values aligned with header: str, int, float, or
    None (rendered as an empty CSV cell).
    """

    kind: str
    header: tuple[str, ...]
    rows: list[list]

    def to_csv(self, path: str) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([_format_cell(v) for v in row])
        write_text(path, buf.getvalue())

    def to_json(self, path: str) -> None:
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "header": list(self.header),
            "rows": self.rows,
        }
        write_text(path, json.dumps(doc, indent=1) + "\n")

    def write(self, out_dir: str, name: str) -> tuple[str, str]:
        """Write name.csv and name.json under out_dir; returns the paths."""
        csv_path = os.path.join(out_dir, f"{name}.csv")
        json_path = os.path.join(out_dir, f"{name}.json")
        self.to_csv(csv_path)
        self.to_json(json_path)
        return csv_path, json_path

    def column(self, name: str) -> list:
        """Values of one column by header name (mean rows included)."""
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6f}"


def _mean_row(group: list[list]) -> list:
    out: list = []
    for col in range(len(group[0])):
        values = [row[col] for row in group]
        if col == 1:
            out.append("mean")
        elif all(v is None for v in values):
            out.append(None)
        elif all(v == values[0] for v in values):
            out.append(values[0])
        elif all(isinstance(v, (int, float, np.integer, np.floating))
                 and v is not None for v in values):
            out.append(float(np.mean([float(v) for v in values])))
        else:
            out.append(values[0])
    return out


def parse_synth_spec(spec: str):
    """Parse a --synth spec into a PriceSeries or TabularDataset."""
    scheme, sep, rest = spec.partition(":")
    if not sep:
        raise ConfigError(
            f"synth spec '{spec}' needs the form scheme:arg,arg,..."
        )
    try:
        args = [float(a) for a in rest.split(",")] if rest else []
    except ValueError:
        raise ConfigError(f"synth spec '{spec}' has non-numeric args") from None

    def integers(count: int) -> list[int]:
        if not all(a.is_integer() for a in args[:count]):
            raise ConfigError(f"synth spec '{spec}' has a seed, n or d that "
                              f"is not an integer")
        return [int(a) for a in args[:count]]

    if scheme == "gbm":
        if not 2 <= len(args) <= 5:
            raise ConfigError("gbm spec takes seed,n[,s0,mu,sigma]")
        defaults = [100.0, 0.05, 0.2]
        s0, mu, sigma = (args[2:] + defaults[len(args) - 2:])
        return synth_gbm(*integers(2), s0=s0, mu=mu, sigma=sigma)
    if scheme == "sine":
        if not 2 <= len(args) <= 8:
            raise ConfigError(
                "sine spec takes seed,n[,s0,mu,sigma,amplitude,period,"
                "noise_std]"
            )
        defaults = [100.0, 0.08, 0.1, 3.0, 40.0, 0.4]
        s0, mu, sigma, amp, period, noise = (
            args[2:] + defaults[len(args) - 2:])
        return synth_sine_trend(*integers(2), s0=s0, mu=mu, sigma=sigma,
                                amplitude=amp, period=period,
                                noise_std=noise)
    if scheme == "tab":
        if not 3 <= len(args) <= 4:
            raise ConfigError("tab spec takes seed,n,d[,positive_rate]")
        rate = args[3] if len(args) == 4 else 0.25
        return synth_tabular(*integers(3), positive_rate=rate)
    raise ConfigError(f"unknown synth scheme '{scheme}'")


def _config_errors(build):
    """build, with a ValueError or OSError from loading, windowing or
    splitting (a bad or unreadable data file, spec or setting) re-raised
    as ConfigError."""
    @functools.wraps(build)
    def checked(config: ExperimentConfig):
        try:
            return build(config)
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc)) from None
    return checked


def _dataset_stem(path: str) -> str:
    base = os.path.basename(path)
    return os.path.splitext(base)[0] or base


@_config_errors
def load_series(config: ExperimentConfig) -> PriceSeries:
    """The configured price series, named by its source; a bad data file
    or spec raises ConfigError."""
    if config.data_path is not None:
        series = load_csv_prices(config.data_path, config.value_column)
        series.name = _dataset_stem(config.data_path)
        return series
    if config.synth is None:
        raise ConfigError("a data path or a synth spec is required")
    series = parse_synth_spec(config.synth)
    if not isinstance(series, PriceSeries):
        raise ConfigError(
            f"synth spec '{config.synth}' does not produce a price series"
        )
    return series


def _load_tabular(config: ExperimentConfig) -> tuple[TabularDataset, str]:
    if config.data_path is not None:
        tab = load_csv_tabular(config.data_path, config.label_column)
        return tab, _dataset_stem(config.data_path)
    if config.synth is None:
        raise ConfigError("a data path or a synth spec is required")
    tab = parse_synth_spec(config.synth)
    if not isinstance(tab, TabularDataset):
        raise ConfigError(
            f"synth spec '{config.synth}' does not produce a tabular "
            f"dataset"
        )
    return tab, config.synth.replace(":", "-")


@_config_errors
def _regression_datasets(config: ExperimentConfig):
    """Load, normalize, window, and split; independent of seed/activation.

    norm_scope 'train' fits the min-max constants on the first
    floor(split * N) values only, so later values may leave [0, 1].
    """
    series = load_series(config)
    values = series.values
    fitted = values
    if config.norm_scope == "train":
        fitted = values[:math.floor(config.split * values.size)]
        if fitted.size < 2:
            raise ConfigError("series too short for train-scope statistics")
    _, vmin, vmax = minmax_normalize(fitted)
    dataset = make_windows((values - vmin) / (vmax - vmin), config.lookback,
                           vmin, vmax,
                           check_unit_range=config.norm_scope == "full")
    train_full, test_ds = chronological_split(dataset, config.split)
    train_ds, val_ds = chronological_split(train_full, 1.0 - config.val_fraction)
    return series.name, train_ds, val_ds, test_ds


@_config_errors
def _classification_datasets(config: ExperimentConfig):
    tab, name = _load_tabular(config)
    if tab.labels.min() == tab.labels.max():
        raise ConfigError("classification dataset has a single class")
    inputs = tab.features.reshape(len(tab), tab.features.shape[1], 1)
    dataset = SequenceDataset(inputs=inputs, targets=tab.labels)
    train_full, test_ds = chronological_split(dataset, config.split)
    train_ds, val_ds = chronological_split(train_full, 1.0 - config.val_fraction)
    return name, train_ds, val_ds, test_ds


def _kind_for(config: ExperimentConfig, name: str,
              m: int | None = None) -> ActivationKind:
    name = name.strip().lower()
    try:
        if name == "brownian":
            return ActivationKind.brownian(
                m=m if m is not None else config.m_values[0],
                sampling=config.sampling)
        return ActivationKind(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fixed_alpha(config: ExperimentConfig,
                 kinds: list[ActivationKind]) -> float | None:
    """The fixed alpha for these cells, or None when alpha is learned;
    ConfigError when none of them is brownian, the only kind it fixes,
    or when more than one alpha is given (only classify trains one cell
    per alpha)."""
    if isinstance(config.alphas, str):
        return None
    if not any(kind.stochastic for kind in kinds):
        raise ConfigError(f"alphas {config.alphas} apply only to the "
                          f"brownian activation, which this run does not "
                          f"train")
    if len(config.alphas) > 1:
        raise ConfigError(f"alphas {config.alphas} hold "
                          f"{len(config.alphas)} values, but this run "
                          f"trains one fixed alpha; pass one value")
    return float(config.alphas[0])


def _fit_cell(config: ExperimentConfig, kind: ActivationKind, seed: int,
              datasets, loss: str, fixed_alpha: float | None):
    """Train one cell; returns (params, history, test predictions)."""
    _, train_ds, val_ds, test_ds = datasets
    freeze = fixed_alpha is not None and kind.stochastic
    train_cfg = replace(config.train, seed=seed, loss=loss,
                        freeze_alpha=freeze)
    init_alpha = DEFAULT_ALPHA
    if freeze:
        init_alpha = float(fixed_alpha)
    params = init_params(train_ds.inputs.shape[2], config.hidden_dim, 1,
                         seed=seed, alpha=init_alpha)
    params, history = train(params, kind, train_ds.inputs, train_ds.targets,
                            val_ds.inputs, val_ds.targets, train_cfg)
    test_loss, test_preds = evaluate(params, kind, test_ds.inputs,
                                     test_ds.targets, train_cfg,
                                     RngStream(seed, _TEST_EVAL_STREAM))
    return params, history, train_cfg, test_loss, test_preds


@dataclass
class Forecast:
    """One trained forecaster: the model, its history and test scores."""

    dataset: str
    kind: ActivationKind
    seed: int
    params: LstmParams
    history: TrainHistory
    test_mse: float
    r2_test: float


def fit_forecaster(config: ExperimentConfig) -> Forecast:
    """Train the one configured activation at the first seed.

    The cell is built exactly as in run_comparison: the same data,
    split, initial weights and test-evaluation stream.
    """
    if len(config.activations) != 1:
        raise ConfigError("train takes exactly one activation")
    datasets = _regression_datasets(config)
    kind = _kind_for(config, config.activations[0])
    seed = config.seeds[0]
    params, history, _, test_mse, test_preds = _fit_cell(
        config, kind, seed, datasets, "mse", _fixed_alpha(config, [kind]))
    return Forecast(dataset=datasets[0], kind=kind, seed=seed,
                    params=params, history=history, test_mse=test_mse,
                    r2_test=r2(test_preds, datasets[3].targets))


def _regression_row(config: ExperimentConfig, seed: int,
                    kind: ActivationKind, datasets,
                    fixed_alpha: float | None) -> list:
    params, history, train_cfg, test_mse, test_preds = _fit_cell(
        config, kind, seed, datasets, "mse", fixed_alpha)
    name, train_ds, _, test_ds = datasets
    _, train_preds = evaluate(params, kind, train_ds.inputs,
                              train_ds.targets, train_cfg,
                              RngStream(seed, _TRAIN_EVAL_STREAM))
    m = kind.m if kind.stochastic else None
    alpha = params.alpha if kind.has_alpha else None
    return [name, seed, kind.display_name, m, alpha, test_mse,
            r2(train_preds, train_ds.targets),
            r2(test_preds, test_ds.targets),
            history.epoch_of_convergence]


def _classification_row(config: ExperimentConfig, seed: int,
                        kind: ActivationKind, datasets,
                        fixed_alpha: float | None) -> list:
    params, history, _, _, test_preds = _fit_cell(
        config, kind, seed, datasets, "bce", fixed_alpha)
    name, _, _, test_ds = datasets
    scores = confusion_metrics(test_preds, test_ds.targets)
    auc = roc_auc(test_preds, test_ds.targets)
    alpha = params.alpha if kind.has_alpha else None
    return [name, seed, kind.display_name, alpha, scores["accuracy"],
            scores["precision"], scores["recall"], scores["f1"], auc]


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot say)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _package_functions() -> dict:
    """{(holder, name): function} for every function held by the
    package's loaded modules and by the classes defined in them."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != __package__:
            continue
        holders = [module] + [value for value in vars(module).values()
                              if isinstance(value, type)
                              and value.__module__ == module_name]
        for holder in holders:
            for name, value in vars(holder).items():
                if isinstance(value, types.FunctionType):
                    found[holder, name] = value
    return found


def _functions_replaced() -> bool:
    """Whether any package function has been replaced since import.

    Tracers, profilers and test spies observe the package by replacing
    its functions and keep what they record in the calling process; a
    forked worker would record into its own copy and lose it.
    """
    return any(getattr(holder, name, None) is not function
               for (holder, name), function in _AS_IMPORTED.items())


@contextlib.contextmanager
def _job_map(jobs: int):
    """An ordered map for `jobs` independent jobs.

    It is a forked process pool's map, one worker per usable CPU up to
    one per job, when there are at least 2 of each and no package
    function has been replaced; otherwise the builtin map.  Platforms
    without `os.sched_getaffinity` (1 usable CPU here), which include
    every platform without fork, run in process.  Forked workers
    inherit the loaded modules instead of importing them again.
    Forking is safe here because the package's only threads are
    RngStream's read-ahead threads (tests/test_package.py), which are
    joined before the pool is built, and a fork-context pool starts
    every worker before its management thread.  Every worker is joined,
    with pending jobs cancelled, before the block is left.
    """
    workers = min(jobs, _usable_cpus())
    if workers < 2 or _functions_replaced():
        yield map
        return
    # Imported here: a run that never starts a pool never loads them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    join_read_ahead()
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _run_cells(config: ExperimentConfig, datasets, cells,
               row_fn) -> list[list]:
    """Train (label, kind, fixed_alpha) cells at every seed; add mean rows.

    Each (cell, seed) job depends only on its arguments, so the jobs may
    run in worker processes (see _job_map); rows are collected in
    report order, which makes the report bytes the same either way.
    The first failing job in that order is the one reported.
    """
    jobs = [(label, seed, kind, fixed_alpha)
            for label, kind, fixed_alpha in cells for seed in config.seeds]
    _, seeds, kinds, alphas = zip(*jobs)
    results: list[list] = []
    with _job_map(len(jobs)) as run:
        try:
            for row in run(row_fn, repeat(config), seeds, kinds,
                           repeat(datasets), alphas):
                results.append(row)
        except ConfigError:
            raise
        except Exception as exc:
            label, seed, _, _ = jobs[len(results)]
            raise RuntimeError(
                f"cell ({label}, seed={seed}) failed: {exc}"
            ) from exc
    rows: list[list] = []
    per_cell = len(config.seeds)
    for start in range(0, len(results), per_cell):
        cell_rows = results[start:start + per_cell]
        rows.extend(cell_rows)
        if per_cell > 1:
            rows.append(_mean_row(cell_rows))
    return rows


def run_sensitivity(config: ExperimentConfig) -> ExperimentReport:
    """Train the stochastic activation once per (M, seed) cell.

    Rows are grouped by M with a mean row per group when several
    seeds run.
    """
    if not config.m_values:
        raise ConfigError("sensitivity requires a non-empty M list")
    datasets = _regression_datasets(config)
    kinds = [_kind_for(config, "brownian", m=m) for m in config.m_values]
    fixed = _fixed_alpha(config, kinds)
    cells = [(f"M={kind.m}", kind, fixed) for kind in kinds]
    return ExperimentReport("regression", REGRESSION_HEADER,
                            _run_cells(config, datasets, cells,
                                       _regression_row))


def run_comparison(config: ExperimentConfig) -> ExperimentReport:
    """Train every configured activation on the identical task.

    The brownian activation uses the first entry of m_values; the M
    column is empty for deterministic activations.
    """
    if not config.activations:
        raise ConfigError("comparison requires at least one activation")
    datasets = _regression_datasets(config)
    kinds = [_kind_for(config, name) for name in config.activations]
    fixed = _fixed_alpha(config, kinds)
    cells = [(kind.display_name, kind, fixed) for kind in kinds]
    return ExperimentReport("regression", REGRESSION_HEADER,
                            _run_cells(config, datasets, cells,
                                       _regression_row))


def run_classification(config: ExperimentConfig) -> ExperimentReport:
    """Binary classification over brownian alpha variants and baselines.

    Each feature row enters the model as a length-d sequence of scalar
    steps.  A 'brownian' entry in config.activations expands into one
    variant per fixed alpha (gradient frozen) or a single learned-alpha
    variant; other entries train as themselves.
    """
    if not config.activations:
        raise ConfigError("classification requires at least one activation")
    datasets = _classification_datasets(config)
    cells = []
    for name in config.activations:
        kind = _kind_for(config, name)
        if kind.stochastic and not isinstance(config.alphas, str):
            cells += [(f"{kind.display_name} alpha={alpha}", kind,
                       float(alpha)) for alpha in config.alphas]
        else:
            cells.append((kind.display_name, kind, None))
    return ExperimentReport("classification", CLASSIFICATION_HEADER,
                            _run_cells(config, datasets, cells,
                                       _classification_row))


def emit_paths_figure(alphas=(0.0, 0.5, 1.0), m_values=(200, 500, 1000, 1500),
                      x_min: float = -5.0, x_max: float = 5.0, seed: int = 7,
                      out_dir: str = ".", points: int = 401,
                      sampling: str = "collapsed") -> tuple[str, str]:
    """Sample activation input-output curves over an x grid.

    Writes paths.csv (long format: alpha, M, x, f at full precision)
    and paths.svg (one polyline per alpha/M combination) under out_dir;
    returns the two paths.  The x range must include negative inputs,
    where the stochastic branch lives.
    """
    alphas = [float(a) for a in alphas]
    if not alphas or not m_values:
        raise ConfigError("paths figure needs at least one alpha and one M")
    if not all(math.isfinite(a) for a in alphas):
        raise ConfigError(f"alphas must be finite, got {alphas}")
    try:
        kinds = [ActivationKind.brownian(m=int(m), sampling=sampling)
                 for m in m_values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not (-math.inf < x_min < x_max < math.inf):
        raise ConfigError(f"x range [{x_min}, {x_max}] must be finite and "
                          f"non-empty")
    if x_min >= 0.0:
        raise ConfigError("x range must include negative inputs")
    if points < 2:
        raise ConfigError(f"need at least 2 grid points, got {points}")
    grid = np.linspace(x_min, x_max, points)
    base = RngStream(seed, _PATHS_STREAM)
    curves = []
    lines = ["alpha,M,x,f\n"]
    index = 0
    for alpha in alphas:
        for kind in kinds:
            y, _ = forward(kind, grid, alpha, rng=base.substream(index))
            index += 1
            curves.append((f"alpha={alpha:g}, M={kind.m}", grid, y))
            lines.extend(f"{alpha!r},{kind.m},{float(x)!r},{float(v)!r}\n"
                         for x, v in zip(grid, y))
    csv_path = os.path.join(out_dir, "paths.csv")
    svg_path = os.path.join(out_dir, "paths.svg")
    write_text(csv_path, "".join(lines))
    write_text(svg_path, line_plot(
        curves, title="Stochastic activation sample paths", xlabel="x",
        ylabel="f(x)"))
    return csv_path, svg_path


# Taken last, when every function of this module is defined.
_AS_IMPORTED = _package_functions()
