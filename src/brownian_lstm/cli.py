"""Command-line interface.

Subcommands: describe, train, sensitivity, compare, classify, paths.
Data comes from --data CSV files or --synth generator specs; an
optional --config JSON file supplies the same keys as the flags
(dashes or underscores), with explicit flags taking precedence.

Exit codes: 0 success, 2 usage or configuration error, 1 runtime
failure; errors print a single line to stderr.
"""

from __future__ import annotations

import argparse
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

ALL_ACTIVATIONS = "brownian,relu,leaky_relu,prelu,tanh,gelu"
CLASSIFY_ALPHAS = "0.014,0.464,0.48,0.925,0.944"


def _int_list(value, flag: str) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = str(value).split(",")
    try:
        return tuple(int(str(v).strip()) for v in items if str(v).strip())
    except ValueError:
        raise ConfigError(f"{flag} expects integers, got '{value}'") from None


def _float_list(value, flag: str) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = str(value).split(",")
    try:
        return tuple(float(str(v).strip()) for v in items if str(v).strip())
    except ValueError:
        raise ConfigError(f"{flag} expects numbers, got '{value}'") from None


def _str_list(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v).strip() for v in value if str(v).strip())
    return tuple(v.strip() for v in str(value).split(",") if v.strip())


def _alphas_value(value):
    if isinstance(value, str) and value.strip().lower() == "learned":
        return "learned"
    return _float_list(value, "--alpha")


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
    """Flag values merged over config-file values over defaults."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file_cfg = (_load_config_file(ns.config)
                         if getattr(ns, "config", None) else {})

    def pick(self, key: str, default=None):
        value = getattr(self.ns, key, None)
        if value is None:
            value = self.file_cfg.get(key, default)
        return value


def _train_config(st: _Settings) -> TrainConfig:
    try:
        return TrainConfig(
            learning_rate=float(st.pick("lr", 1e-3)),
            max_epochs=int(st.pick("epochs", 50)),
            batch_size=int(st.pick("batch", 32)),
            optimizer=str(st.pick("optimizer", "adam")),
            eval_noise=str(st.pick("eval_noise", "stochastic")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _experiment_config(st: _Settings, default_m: str,
                       default_alpha: str,
                       default_activations: str) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            data_path=st.pick("data"),
            synth=st.pick("synth"),
            value_column=str(st.pick("column", "Close")),
            label_column=str(st.pick("label_column", "label")),
            activations=_str_list(st.pick("activations",
                                          default_activations)),
            m_values=_int_list(st.pick("m", default_m), "--m"),
            alphas=_alphas_value(st.pick("alpha", default_alpha)),
            lookback=int(st.pick("lookback", 60)),
            hidden_dim=int(st.pick("hidden", 50)),
            split=float(st.pick("split", 0.8)),
            sampling=str(st.pick("sampling", "collapsed")),
            norm_scope=str(st.pick("norm_scope", "full")),
            seeds=_int_list(st.pick("seed", "1"), "--seed"),
            out_dir=str(st.pick("out") or "."),
            train=_train_config(st),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _add_data_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--data", help="CSV file to load")
    sp.add_argument("--synth",
                    help="synthetic data spec, e.g. gbm:7,1500,100,0.05,0.2")
    sp.add_argument("--column", help="value column name (default Close)")
    sp.add_argument("--config", help="JSON config file mirroring the flags")
    sp.add_argument("--out", help="output directory (default .)")


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--activations",
                    help="comma-separated activation names")
    sp.add_argument("--m", help="comma-separated Monte Carlo sample counts")
    sp.add_argument("--alpha",
                    help="'learned' or comma-separated fixed alpha values")
    sp.add_argument("--lookback", type=int, help="window length (default 60)")
    sp.add_argument("--hidden", type=int,
                    help="LSTM hidden units (default 50)")
    sp.add_argument("--split", type=float,
                    help="train fraction in (0, 1), default 0.8")
    sp.add_argument("--epochs", type=int, help="epoch cap (default 50)")
    sp.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    sp.add_argument("--batch", type=int, help="minibatch size (default 32)")
    sp.add_argument("--optimizer", choices=("sgd", "adam"))
    sp.add_argument("--eval-noise", dest="eval_noise",
                    choices=("stochastic", "mean"),
                    help="evaluation noise handling (default stochastic)")
    sp.add_argument("--sampling", choices=("explicit", "collapsed"))
    sp.add_argument("--norm-scope", dest="norm_scope",
                    choices=("full", "train"),
                    help="fit normalization on the full series or the "
                         "training span only (default full)")
    sp.add_argument("--seed", help="comma-separated seeds (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brownian-lstm",
        description="LSTM sequence models with a stochastic BrownianReLU "
                    "activation")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("describe",
                        help="mean and sample variance of a price series")
    _add_data_flags(sp)
    sp.add_argument("--raw", action="store_true",
                    help="describe raw values instead of normalized")
    sp.set_defaults(func=cmd_describe)

    sp = sub.add_parser("train", help="train one forecasting model")
    _add_data_flags(sp)
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("sensitivity",
                        help="Monte Carlo sample-count sensitivity report")
    _add_data_flags(sp)
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_sensitivity)

    sp = sub.add_parser("compare",
                        help="activation comparison report")
    _add_data_flags(sp)
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("classify",
                        help="binary classification report")
    _add_data_flags(sp)
    _add_model_flags(sp)
    sp.add_argument("--label-column", dest="label_column",
                    help="label column name (default label)")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("paths",
                        help="sampled activation curves (CSV + SVG)")
    sp.add_argument("--alpha", help="comma-separated alpha values")
    sp.add_argument("--m", help="comma-separated sample counts")
    sp.add_argument("--xmin", type=float, help="grid start (default -5)")
    sp.add_argument("--xmax", type=float, help="grid end (default 5)")
    sp.add_argument("--points", type=int, help="grid size (default 401)")
    sp.add_argument("--sampling", choices=("explicit", "collapsed"))
    sp.add_argument("--seed", help="noise seed (default 7)")
    sp.add_argument("--config", help="JSON config file mirroring the flags")
    sp.add_argument("--out", help="output directory (default .)")
    sp.set_defaults(func=cmd_paths)

    return parser


def cmd_describe(ns: argparse.Namespace) -> int:
    st = _Settings(ns)
    config = _experiment_config(st, "1000", "learned", ALL_ACTIVATIONS)
    series = load_series(config)
    values = series.values
    label = "raw"
    if not st.pick("raw", False):
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
    st = _Settings(ns)
    config = _experiment_config(st, "1000", "learned", "brownian")
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


def _run_report(ns: argparse.Namespace, default_m: str, default_alpha: str,
                default_activations: str, runner, name: str) -> int:
    st = _Settings(ns)
    config = _experiment_config(st, default_m, default_alpha,
                                default_activations)
    report = runner(config)
    csv_path, json_path = report.write(config.out_dir, name)
    print(f"wrote {csv_path} and {json_path} ({len(report.rows)} rows)")
    return 0


def cmd_sensitivity(ns: argparse.Namespace) -> int:
    return _run_report(ns, "500,1000,1500", "learned", "brownian",
                       run_sensitivity, "sensitivity")


def cmd_compare(ns: argparse.Namespace) -> int:
    return _run_report(ns, "1000", "learned", ALL_ACTIVATIONS,
                       run_comparison, "comparison")


def cmd_classify(ns: argparse.Namespace) -> int:
    return _run_report(ns, "1000", CLASSIFY_ALPHAS, ALL_ACTIVATIONS,
                       run_classification, "classification")


def cmd_paths(ns: argparse.Namespace) -> int:
    st = _Settings(ns)
    alphas = _float_list(st.pick("alpha", "0,0.5,1"), "--alpha")
    m_values = _int_list(st.pick("m", "200,500,1000,1500"), "--m")
    seeds = _int_list(st.pick("seed", "7"), "--seed")
    csv_path, svg_path = emit_paths_figure(
        alphas, m_values,
        x_min=float(st.pick("xmin", -5.0)),
        x_max=float(st.pick("xmax", 5.0)),
        seed=seeds[0],
        out_dir=str(st.pick("out", ".")),
        points=int(st.pick("points", 401)),
        sampling=str(st.pick("sampling", "collapsed")),
    )
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
