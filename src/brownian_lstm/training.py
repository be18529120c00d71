"""Minibatch training loop with early stopping.

Losses are means over the batch, so gradients scale like averages and
the learning rate is batch-size stable.  alpha is one of the
params.arrays(), updated in the same loop as the weights from the
dL/dalpha accumulated by backpropagation through time; with SGD that is

    alpha <- alpha - lr * dL/dalpha

which for BrownianReLU increases alpha whenever the accumulated
delta * b terms (errors times sampled mean paths on the negative
branch) say it should.  A frozen alpha gets a zero gradient, which
leaves it bit for bit unchanged under SGD and Adam alike.

Stochastic activations draw fresh noise for every minibatch from a
dedicated stream, so a (config seed, data) pair pins the entire run;
validation uses its own stream and either keeps sampling
(eval_noise='stochastic') or scores the ReLU network, the noise-mean
network (eval_noise='mean').  Early stopping watches validation loss
with a patience counter gated by MIN_DELTA; epoch_of_convergence is the
argmin of validation loss over the epochs actually executed, and the
returned parameters are the snapshot from that epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import ActivationKind, NonFiniteInput
from .lstm import LstmParams, backward_bptt, sequence_forward
from .metrics import confusion_metrics, r2
from .numerics import RngStream, write_text

_NOISE_STREAM = 11
_EVAL_STREAM = 23
EVAL_BATCH = 256
# Adam's moment decay rates and denominator floor (Kingma & Ba's values).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# Global gradient-norm cap (0 turns clipping off), the validation-loss
# improvement that resets the patience counter, and the |alpha| past
# which a run counts as diverged.  train reads them on each call.
CLIP_NORM = 5.0
MIN_DELTA = 1e-5
ALPHA_GUARD = 1e3


class TrainingDiverged(RuntimeError):
    """Raised by train for a run that blows up (see train)."""


@dataclass
class TrainConfig:
    """Hyperparameters for train().

    eval_noise: 'stochastic' keeps sampling during validation and test
    evaluation, 'mean' replaces the noise by its mean, 0 (see evaluate).
    """

    learning_rate: float = 1e-3
    max_epochs: int = 50
    batch_size: int = 32
    optimizer: str = "adam"
    patience: int = 5
    seed: int = 0
    loss: str = "mse"
    eval_noise: str = "stochastic"
    freeze_alpha: bool = False

    def __post_init__(self):
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be > 0 and finite, got "
                             f"{self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.loss not in ("mse", "bce"):
            raise ValueError(f"unknown loss '{self.loss}'")
        if self.eval_noise not in ("stochastic", "mean"):
            raise ValueError(f"unknown eval_noise mode '{self.eval_noise}'")

    @property
    def head(self) -> str:
        return "sigmoid" if self.loss == "bce" else "linear"


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    metric: list[float] = field(default_factory=list)
    alpha: list[float] = field(default_factory=list)
    epoch_of_convergence: int = 0

    @property
    def executed_epochs(self) -> int:
        return len(self.train_loss)

    def to_csv(self, path: str) -> None:
        lines = [f"{e + 1},{self.train_loss[e]!r},{self.val_loss[e]!r},"
                 f"{self.metric[e]!r},{self.alpha[e]!r}\n"
                 for e in range(self.executed_epochs)]
        write_text(path, "epoch,train_loss,val_loss,metric,alpha\n"
                   + "".join(lines))


def mse_loss(pred, target):
    """Mean squared error and its gradient with respect to pred.

    loss = (1/N) sum (pred - target)^2, grad = (2/N)(pred - target).
    """
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.shape != target.shape:
        raise ValueError(
            f"prediction length {pred.size} does not match target length "
            f"{target.size}"
        )
    if pred.size == 0:
        raise ValueError("loss requires at least one sample")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / pred.size) * diff
    return loss, grad


def bce_loss(prob, label):
    """Binary cross-entropy and its gradient with respect to prob.

    Probabilities are clipped to [1e-7, 1 - 1e-7] before the logs, so
    the loss is finite for saturated predictions; the gradient is of the
    clipped loss and matches finite differences away from the clip
    boundary.
    """
    prob = np.asarray(prob, dtype=np.float64).ravel()
    label = np.asarray(label, dtype=np.float64).ravel()
    if prob.shape != label.shape:
        raise ValueError(
            f"prediction length {prob.size} does not match label length "
            f"{label.size}"
        )
    if prob.size == 0:
        raise ValueError("loss requires at least one sample")
    if not np.all((label == 0.0) | (label == 1.0)):
        raise ValueError("bce labels must be 0 or 1")
    p = np.clip(prob, 1e-7, 1.0 - 1e-7)
    loss = float(-np.mean(label * np.log(p) + (1.0 - label) * np.log1p(-p)))
    inside = (prob > 1e-7) & (prob < 1.0 - 1e-7)
    grad = np.where(inside, (p - label) / (p * (1.0 - p)), 0.0) / prob.size
    return loss, grad


class OptimizerState:
    """Per-parameter moment buffers for Adam; step counter for both."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale grads in place to a global L2 norm cap; returns the norm."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for value in grads.values():
            value *= scale
    return norm


def optimizer_step(params: LstmParams, grads: dict, state: OptimizerState,
                   config: TrainConfig) -> None:
    """Apply one SGD or Adam update in place to every params.arrays()."""
    lr = config.learning_rate
    if config.optimizer == "sgd":
        for key, weights in params.arrays().items():
            weights -= lr * grads[key]
        return
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for key, weights in params.arrays().items():
        g = grads[key]
        state.m[key] = BETA1 * state.m.get(key, 0.0) + (1.0 - BETA1) * g
        state.v[key] = BETA2 * state.v.get(key, 0.0) + (1.0 - BETA2) * (g * g)
        m_hat = state.m[key] / bias1
        v_hat = state.v[key] / bias2
        weights -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _batch_tensor(inputs: np.ndarray, rows: slice) -> np.ndarray:
    # (N, T, d) rows -> (T, d, B) columns for the cell, copied once.
    return np.ascontiguousarray(inputs[rows].transpose(1, 2, 0))


def evaluate(params: LstmParams, kind: ActivationKind, inputs: np.ndarray,
             targets: np.ndarray, config: TrainConfig,
             rng: RngStream | None):
    """Loss and predictions over a dataset, in EVAL_BATCH chunks.

    Forward-only: no per-step trace is recorded, so memory stays at one
    timestep's arrays per chunk.  Applies config.eval_noise; returns
    (loss, predictions) with predictions as a 1-D array aligned with
    targets.  Under 'mean' a stochastic kind is scored as ReLU: its
    noise has mean 0, and at zbar = 0 the negative branch
    -(alpha * 0.0) + 0.0 is +0.0 for either sign of alpha, which is
    ReLU's output bit for bit; no noise is drawn.
    """
    n_samples = inputs.shape[0]
    if n_samples == 0:
        raise ValueError("evaluation requires at least one sample")
    if config.eval_noise == "mean" and kind.stochastic:
        kind = ActivationKind("relu")
    preds = np.empty(n_samples)
    for start in range(0, n_samples, EVAL_BATCH):
        rows = slice(start, start + EVAL_BATCH)
        pred, _ = sequence_forward(params, _batch_tensor(inputs, rows), kind,
                                   rng=rng, head=config.head, record=False)
        preds[rows] = pred[0]
    loss_fn = bce_loss if config.loss == "bce" else mse_loss
    loss, _ = loss_fn(preds, targets)
    return loss, preds


def _epoch_metric(config: TrainConfig, preds: np.ndarray,
                  targets: np.ndarray) -> float:
    if config.loss == "bce":
        return confusion_metrics(preds, targets)["accuracy"]
    if np.ptp(targets) == 0.0:
        return float("nan")
    return r2(preds, targets)


def train(params: LstmParams, kind: ActivationKind, train_inputs,
          train_targets, val_inputs, val_targets, config: TrainConfig):
    """Fit params on (train_inputs, train_targets) with early stopping.

    Arguments:
        train_inputs  (N, T, d) array of input sequences
        train_targets (N,) regression targets or 0/1 labels
        val_inputs    validation sequences for the stopping criterion
        config        TrainConfig; config.seed pins the run

    Returns:
        (best_params, TrainHistory).  best_params is the snapshot from
        the epoch with the lowest validation loss.  Minibatches are
        taken in chronological order; stochastic activations consume
        fresh noise per minibatch.  Raises ValueError for non-finite
        data, and TrainingDiverged naming the epoch and the batch for a
        non-finite loss, forward state or parameter array (and its key)
        or |alpha| > ALPHA_GUARD.
    """
    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    train_targets = np.asarray(train_targets, dtype=np.float64).ravel()
    val_inputs = np.asarray(val_inputs, dtype=np.float64)
    val_targets = np.asarray(val_targets, dtype=np.float64).ravel()
    if train_inputs.ndim != 3:
        raise ValueError(
            f"train inputs must be (N, T, d), got shape {train_inputs.shape}"
        )
    n_train = train_inputs.shape[0]
    if n_train == 0 or val_inputs.shape[0] == 0:
        raise ValueError("training and validation sets must be non-empty")
    if train_targets.size != n_train:
        raise ValueError(
            f"{n_train} training sequences but {train_targets.size} targets"
        )
    if not all(np.isfinite(data).all() for data in
               (train_inputs, train_targets, val_inputs, val_targets)):
        raise ValueError("training and validation data hold NaN or an inf")

    params = params.copy()
    loss_fn = bce_loss if config.loss == "bce" else mse_loss
    noise_rng = RngStream(config.seed, _NOISE_STREAM)
    eval_rng = RngStream(config.seed, _EVAL_STREAM)
    opt_state = OptimizerState()
    history = TrainHistory()

    best_val = math.inf
    best_params = params.copy()
    stop_best = math.inf
    bad_epochs = 0
    batch_starts = range(0, n_train, config.batch_size)

    try:
        for epoch in range(config.max_epochs):
            epoch_loss = 0.0
            epoch_preds = np.empty(n_train)
            for batch, start in enumerate(batch_starts):
                where = f"epoch {epoch + 1}, batch {batch + 1}"
                rows = slice(start, start + config.batch_size)
                x = _batch_tensor(train_inputs, rows)
                pred, trace = sequence_forward(params, x, kind, rng=noise_rng,
                                               head=config.head)
                loss, dpred = loss_fn(pred[0], train_targets[rows])
                if not math.isfinite(loss):
                    raise TrainingDiverged(f"non-finite loss at {where}")
                epoch_loss += loss * pred.shape[1]
                epoch_preds[rows] = pred[0]
                grads = backward_bptt(params, trace, dpred.reshape(1, -1))
                if config.freeze_alpha:
                    grads["alpha"][...] = 0.0
                clip_gradients(grads, CLIP_NORM)
                optimizer_step(params, grads, opt_state, config)
                for key, value in params.arrays().items():
                    if not np.isfinite(value).all():
                        raise TrainingDiverged(
                            f"parameter '{key}' went non-finite at {where}")
                if abs(params.alpha) > ALPHA_GUARD:
                    raise TrainingDiverged(
                        f"alpha diverged to {params.alpha} at {where}")
            where = f"epoch {epoch + 1}, validation"
            val_loss, _ = evaluate(params, kind, val_inputs, val_targets,
                                   config, eval_rng)
            history.train_loss.append(epoch_loss / n_train)
            history.val_loss.append(val_loss)
            history.metric.append(_epoch_metric(config, epoch_preds,
                                                train_targets))
            history.alpha.append(params.alpha)

            if val_loss < best_val:
                best_val = val_loss
                best_params = params.copy()
                history.epoch_of_convergence = epoch + 1
            if val_loss < stop_best - MIN_DELTA:
                stop_best = val_loss
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    break
    except NonFiniteInput as exc:
        # The data are finite (checked above), so only weights grown large
        # enough to overflow the state feed an activation a non-finite input.
        raise TrainingDiverged(f"forward pass overflowed at {where}") from exc
    return best_params, history
