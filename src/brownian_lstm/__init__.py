"""LSTM sequence models with a stochastic BrownianReLU activation.

The activation keeps the positive half of ReLU and replaces the
negative half by -alpha times the Monte Carlo mean of Brownian samples
at time |x|, with alpha learned alongside the network weights by exact
backpropagation through time.  The package also ships the deterministic
baselines (ReLU, LeakyReLU, PReLU, tanh, GELU), a from-scratch LSTM
with a dense head, data pipelines for price series and tabular
classification, metrics, and deterministic experiment harnesses with
CSV/JSON reports.
"""

from .activations import (ActivationCache, ActivationKind, backward_alpha,
                          backward_input, forward)
from .data import (PriceSeries, SequenceDataset, TabularDataset,
                   chronological_split, denormalize, describe,
                   load_csv_prices, load_csv_tabular, make_windows,
                   minmax_normalize, synth_gbm, synth_sine_trend,
                   synth_tabular)
from .experiments import (ConfigError, ExperimentConfig, ExperimentReport,
                          Forecast, emit_paths_figure, fit_forecaster,
                          run_classification, run_comparison,
                          run_sensitivity)
from .lstm import (ForwardTrace, LstmParams, backward_bptt, init_params,
                   load_checkpoint, save_checkpoint, sequence_forward)
from .metrics import confusion_metrics, r2, roc_auc
from .numerics import RngStream
from .training import (TrainConfig, TrainHistory, TrainingDiverged, bce_loss,
                       evaluate, mse_loss, optimizer_step, train)

__version__ = "0.1.0"

__all__ = [
    "ActivationCache", "ActivationKind", "backward_alpha", "backward_input",
    "forward",
    "PriceSeries", "SequenceDataset", "TabularDataset",
    "chronological_split", "denormalize", "describe", "load_csv_prices",
    "load_csv_tabular", "make_windows", "minmax_normalize", "synth_gbm",
    "synth_sine_trend", "synth_tabular",
    "ConfigError", "ExperimentConfig", "ExperimentReport", "Forecast",
    "emit_paths_figure", "fit_forecaster", "run_classification",
    "run_comparison", "run_sensitivity",
    "ForwardTrace", "LstmParams", "backward_bptt", "init_params",
    "load_checkpoint", "save_checkpoint", "sequence_forward",
    "confusion_metrics", "r2", "roc_auc",
    "RngStream",
    "TrainConfig", "TrainHistory", "TrainingDiverged", "bce_loss",
    "evaluate", "mse_loss", "optimizer_step", "train",
    "__version__",
]
