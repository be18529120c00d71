"""Regression and binary-classification metrics.

Confusion-matrix metrics threshold probabilities at THRESHOLD and map
zero-denominator cases to 0 (no predicted positives gives precision 0,
no actual positives gives recall 0, precision + recall = 0 gives F1 0).
ROC-AUC is the Mann-Whitney rank statistic with average ranks on ties,
which equals the area under the empirical ROC curve with tied score
groups traversed diagonally.
"""

from __future__ import annotations

import numpy as np

THRESHOLD = 0.5


def _pair(pred, target, name: str):
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.size == 0:
        raise ValueError(f"{name} requires at least one sample")
    if pred.shape != target.shape:
        raise ValueError(
            f"{name}: prediction length {pred.size} does not match target "
            f"length {target.size}"
        )
    return pred, target


def r2(pred, target) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot.

    SS_tot uses the target mean; a constant target makes R^2 undefined
    and raises ValueError.
    """
    pred, target = _pair(pred, target, "r2")
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - np.mean(target)) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 is undefined for a constant target")
    return 1.0 - ss_res / ss_tot


def confusion_metrics(prob, label):
    """Accuracy, precision, recall, and F1 at the probability THRESHOLD.

    Predictions are prob >= THRESHOLD.  Returns a dict with keys
    'accuracy', 'precision', 'recall', 'f1', 'tp', 'fp', 'fn', 'tn'.
    """
    prob, label = _pair(prob, label, "confusion_metrics")
    if not np.all((label == 0.0) | (label == 1.0)):
        raise ValueError("labels must be 0 or 1")
    hard = prob >= THRESHOLD
    truth = label == 1.0
    tp = int(np.sum(hard & truth))
    fp = int(np.sum(hard & ~truth))
    fn = int(np.sum(~hard & truth))
    tn = int(np.sum(~hard & ~truth))
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return {"accuracy": accuracy, "precision": precision, "recall": recall,
            "f1": f1, "tp": tp, "fp": fp, "fn": fn, "tn": tn}


def roc_auc(score, label) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    AUC = (R_pos - n_pos (n_pos + 1) / 2) / (n_pos * n_neg) where R_pos
    is the sum of the positives' average ranks.  Requires both classes
    present.  Perfect ranking gives exactly 1.0; scores independent of
    labels give 0.5 in expectation; ties count half.
    """
    score, label = _pair(score, label, "roc_auc")
    if not np.all((label == 0.0) | (label == 1.0)):
        raise ValueError("labels must be 0 or 1")
    n_pos = int(np.sum(label == 1.0))
    n_neg = label.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc requires both classes present")
    order = np.argsort(score, kind="mergesort")
    sorted_scores = score[order]
    ranks = np.empty(score.size)
    # Average ranks over each tied group (1-based ranks).
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0.0) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [score.size]))
    for lo, hi in zip(starts, ends):
        ranks[order[lo:hi]] = 0.5 * (lo + 1 + hi)
    rank_sum = float(np.sum(ranks[label == 1.0]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
