"""Command-line interface.

Subcommands: describe, train, sensitivity, compare, classify, paths.
Data comes from --data CSV files or --synth generator specs; an
optional --config JSON file supplies the same keys as the flags
(dashes or underscores), with explicit flags taking precedence.  Each
flag sets one field of TrainConfig or ExperimentConfig, or one
parameter of emit_paths_figure (the _*_FLAGS tables); a value that
neither a flag nor the file sets keeps the subcommand's preset or else
the default its target declares, which --help shows.

Exit codes: 0 success, 2 usage or configuration error (a bad data file
or synth spec included), 1 runtime failure; errors print a single line
to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from .data import describe, minmax_normalize
from .experiments import (ConfigError, ExperimentConfig, emit_paths_figure,
                          fit_forecaster, load_series, run_classification,
                          run_comparison, run_sensitivity)
from .lstm import save_checkpoint
from .numerics import write_text
from .training import TrainConfig

CLASSIFY_ALPHAS = (0.014, 0.464, 0.48, 0.925, 0.944)
# ExperimentConfig values a subcommand sets in place of the declared ones.
_PRESETS = {
    "train": {"activations": ("brownian",), "m_values": (1000,)},
    "sensitivity": {"activations": ("brownian",)},
    "compare": {"m_values": (1000,)},
    "classify": {"m_values": (1000,), "alphas": CLASSIFY_ALPHAS},
}


def _list(item):
    """Parser of a comma-separated string or a JSON list into a tuple."""
    def parse(value) -> tuple:
        items = (value if isinstance(value, (list, tuple))
                 else str(value).split(","))
        return tuple(item(str(v).strip()) for v in items if str(v).strip())
    return parse


def _single(item):
    """Parser of one value, given alone or as a one-item list."""
    def parse(value):
        items = _list(item)(value)
        if len(items) != 1:
            raise ValueError(f"expected one value, got {len(items)}")
        return items[0]
    return parse


def _alphas(value):
    if isinstance(value, str) and value.strip().lower() == "learned":
        return "learned"
    return _list(float)(value)


# flag (dashes as underscores): (field, parse, help[, choices]).
_TRAIN_FLAGS = {
    "epochs": ("max_epochs", int, "epoch cap"),
    "lr": ("learning_rate", float, "learning rate"),
    "batch": ("batch_size", int, "minibatch size"),
    "optimizer": ("optimizer", str, "update rule", ("sgd", "adam")),
    "eval_noise": ("eval_noise", str, "evaluation noise handling",
                   ("stochastic", "mean")),
}
_EXPERIMENT_FLAGS = {
    "data": ("data_path", str, "CSV file to load"),
    "synth": ("synth", str,
              "synthetic data spec, e.g. gbm:7,1500,100,0.05,0.2"),
    "column": ("value_column", str, "value column name"),
    "out": ("out_dir", str, "output directory"),
    "activations": ("activations", _list(str),
                    "comma-separated activation names"),
    "m": ("m_values", _list(int), "comma-separated Monte Carlo sample counts"),
    "alpha": ("alphas", _alphas,
              "'learned' or comma-separated fixed alpha values"),
    "lookback": ("lookback", int, "window length"),
    "hidden": ("hidden_dim", int, "LSTM hidden units"),
    "split": ("split", float, "train fraction in (0, 1)"),
    "sampling": ("sampling", str, "noise sampling mode",
                 ("explicit", "collapsed")),
    "norm_scope": ("norm_scope", str, "fit normalization on the full series "
                   "or the training span only", ("full", "train")),
    "seed": ("seeds", _list(int), "comma-separated seeds"),
    "label_column": ("label_column", str, "label column name"),
}
_PATHS_FLAGS = {
    "alpha": ("alphas", _list(float), "comma-separated alpha values"),
    "m": ("m_values", _list(int), "comma-separated sample counts"),
    "xmin": ("x_min", float, "grid start"),
    "xmax": ("x_max", float, "grid end"),
    "points": ("points", int, "grid size"),
    "sampling": ("sampling", str, "noise sampling mode",
                 ("explicit", "collapsed")),
    "seed": ("seed", _single(int), "noise seed"),
    "out": ("out_dir", str, "output directory"),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in doc.items()}


class _Settings:
    """Flag values merged over config-file values."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file_cfg = _load_config_file(ns.config) if ns.config else {}

    def pick(self, key: str):
        value = getattr(self.ns, key, None)
        return self.file_cfg.get(key) if value is None else value

    def fields(self, table: dict, **preset) -> dict:
        """Keyword arguments for table's target: the preset, then every
        field whose flag a flag or the config file set."""
        values = dict(preset)
        for flag, (field, parse, *_) in table.items():
            value = self.pick(flag)
            if value is not None:
                try:
                    values[field] = parse(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"--{flag.replace('_', '-')}: {exc}"
                                      ) from None
        return values


def _experiment_config(st: _Settings) -> ExperimentConfig:
    preset = _PRESETS.get(st.ns.command, {})
    try:
        return ExperimentConfig(train=TrainConfig(**st.fields(_TRAIN_FLAGS)),
                                **st.fields(_EXPERIMENT_FLAGS, **preset))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _add_flags(sp: argparse.ArgumentParser, target, table: dict, flags,
               preset=()) -> None:
    """Add each of flags from table; its help shows the default target
    declares for its field, unless that is None or preset."""
    declared = inspect.signature(target).parameters
    for flag in flags:
        field, parse, text, *choices = table[flag]
        default = declared[field].default
        if default is not None and field not in preset:
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            text = f"{text} (default {default})"
        sp.add_argument("--" + flag.replace("_", "-"), dest=flag, help=text,
                        type=parse if parse in (int, float) else None,
                        choices=choices[0] if choices else None)


def _subcommand(sub, name: str, func, text: str) -> argparse.ArgumentParser:
    sp = sub.add_parser(name, help=text)
    sp.add_argument("--config", help="JSON config file mirroring the flags")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brownian-lstm",
        description="LSTM sequence models with a stochastic BrownianReLU "
                    "activation")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "describe", cmd_describe,
                     "mean and sample variance of a price series")
    _add_flags(sp, ExperimentConfig, _EXPERIMENT_FLAGS,
               ("data", "synth", "column", "out"))
    sp.add_argument("--raw", action="store_true", default=None,
                    help="describe raw values instead of normalized")

    for name, func, text in (
            ("train", cmd_train, "train one forecasting model"),
            ("sensitivity", cmd_sensitivity,
             "Monte Carlo sample-count sensitivity report"),
            ("compare", cmd_compare, "activation comparison report"),
            ("classify", cmd_classify, "binary classification report")):
        sp = _subcommand(sub, name, func, text)
        flags = [f for f in _EXPERIMENT_FLAGS
                 if f != "label_column" or name == "classify"]
        _add_flags(sp, ExperimentConfig, _EXPERIMENT_FLAGS, flags,
                   _PRESETS[name])
        _add_flags(sp, TrainConfig, _TRAIN_FLAGS, _TRAIN_FLAGS)

    sp = _subcommand(sub, "paths", cmd_paths,
                     "sampled activation curves (CSV + SVG)")
    _add_flags(sp, emit_paths_figure, _PATHS_FLAGS, _PATHS_FLAGS)
    return parser


def cmd_describe(ns: argparse.Namespace) -> int:
    st = _Settings(ns)
    series = load_series(_experiment_config(st))
    values = series.values
    label = "raw"
    if not st.pick("raw"):
        values, _, _ = minmax_normalize(values)
        label = "normalized"
    mean, variance = describe(values)
    print(f"dataset={series.name} n={values.size} scale={label} "
          f"mean={mean:.6f} variance={variance:.6f}")
    out_dir = st.pick("out")
    if out_dir:
        path = os.path.join(out_dir, "describe.csv")
        write_text(path, "Dataset,N,Scale,Mean,Variance\n"
                   f"{series.name},{values.size},{label},"
                   f"{mean:.6f},{variance:.6f}\n")
        print(f"wrote {path}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    config = _experiment_config(_Settings(ns))
    fit = fit_forecaster(config)
    history_path = os.path.join(config.out_dir, "history.csv")
    model_path = os.path.join(config.out_dir, "model.json")
    fit.history.to_csv(history_path)
    save_checkpoint(model_path, fit.params, fit.kind)
    alpha_note = (f" alpha={fit.params.alpha:.6f}"
                  if fit.kind.has_alpha else "")
    print(f"dataset={fit.dataset} activation={fit.kind.display_name} "
          f"seed={fit.seed} epochs={fit.history.executed_epochs} "
          f"converged={fit.history.epoch_of_convergence} "
          f"test_mse={fit.test_mse:.6f} r2_test={fit.r2_test:.6f}"
          f"{alpha_note}")
    print(f"wrote {history_path} and {model_path}")
    return 0


def _run_report(ns: argparse.Namespace, runner, name: str) -> int:
    config = _experiment_config(_Settings(ns))
    report = runner(config)
    csv_path, json_path = report.write(config.out_dir, name)
    print(f"wrote {csv_path} and {json_path} ({len(report.rows)} rows)")
    return 0


def cmd_sensitivity(ns: argparse.Namespace) -> int:
    return _run_report(ns, run_sensitivity, "sensitivity")


def cmd_compare(ns: argparse.Namespace) -> int:
    return _run_report(ns, run_comparison, "comparison")


def cmd_classify(ns: argparse.Namespace) -> int:
    return _run_report(ns, run_classification, "classification")


def cmd_paths(ns: argparse.Namespace) -> int:
    csv_path, svg_path = emit_paths_figure(
        **_Settings(ns).fields(_PATHS_FLAGS))
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
