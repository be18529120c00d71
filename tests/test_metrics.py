"""Regression and classification metrics against brute-force oracles."""

import itertools

import numpy as np
import pytest

from brownian_lstm.metrics import confusion_metrics, r2, roc_auc
from brownian_lstm.numerics import RngStream


class TestR2:
    def test_perfect_fit(self):
        target = np.array([1.0, 2.0, 3.0])
        assert r2(target, target) == 1.0

    def test_mean_predictor_scores_zero(self):
        target = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, 2.0)
        assert r2(pred, target) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case_negative(self):
        # pred [3, 2, 1] vs target [1, 2, 3]: ss_res = 8, ss_tot = 2.
        assert r2(np.array([3.0, 2.0, 1.0]),
                  np.array([1.0, 2.0, 3.0])) == pytest.approx(-3.0)

    def test_hand_case_half(self):
        # ss_res = 1, ss_tot = 2 -> 0.5.
        assert r2(np.array([1.0, 2.0, 4.0]),
                  np.array([1.0, 2.0, 3.0])) == pytest.approx(0.5)

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            r2(np.array([1.0, 2.0]), np.array([5.0, 5.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            r2(np.array([1.0]), np.array([1.0, 2.0]))


def _confusion_oracle(prob, label, threshold=0.5):
    tp = fp = fn = tn = 0
    for p, y in zip(prob, label):
        hard = 1 if p >= threshold else 0
        if hard == 1 and y == 1:
            tp += 1
        elif hard == 1 and y == 0:
            fp += 1
        elif hard == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    n = len(label)
    out = {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
           "accuracy": (tp + tn) / n}
    out["precision"] = tp / (tp + fp) if tp + fp else 0.0
    out["recall"] = tp / (tp + fn) if tp + fn else 0.0
    if out["precision"] + out["recall"] > 0:
        out["f1"] = (2 * out["precision"] * out["recall"]
                     / (out["precision"] + out["recall"]))
    else:
        out["f1"] = 0.0
    return out


class TestConfusionMetrics:
    def test_all_length_four_patterns_match_oracle(self):
        # Every combination of hard predictions and labels of length 4:
        # 16 x 16 = 256 cases, compared field by field.
        probs = [0.1, 0.9]
        for pred_bits in itertools.product((0, 1), repeat=4):
            prob = np.array([probs[b] for b in pred_bits])
            for label_bits in itertools.product((0, 1), repeat=4):
                label = np.array(label_bits, dtype=float)
                got = confusion_metrics(prob, label)
                want = _confusion_oracle(prob, label)
                for key, value in want.items():
                    assert got[key] == pytest.approx(value, abs=1e-15), (
                        pred_bits, label_bits, key)

    def test_threshold_is_inclusive(self):
        got = confusion_metrics(np.array([0.5]), np.array([1.0]))
        assert got["tp"] == 1

    def test_counts_sum_to_n(self):
        rng = RngStream(2)
        prob = rng.uniform(size=100)
        label = (rng.uniform(size=100) > 0.6).astype(float)
        got = confusion_metrics(prob, label)
        assert got["tp"] + got["fp"] + got["fn"] + got["tn"] == 100

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            confusion_metrics(np.array([0.5]), np.array([2.0]))


def _auc_oracle(score, label):
    pos = [s for s, y in zip(score, label) if y == 1]
    neg = [s for s, y in zip(score, label) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation_is_exactly_one(self):
        score = np.array([0.1, 0.2, 0.8, 0.9])
        label = np.array([0.0, 0.0, 1.0, 1.0])
        assert roc_auc(score, label) == 1.0

    def test_perfectly_wrong_is_zero(self):
        score = np.array([0.9, 0.8, 0.2, 0.1])
        label = np.array([0.0, 0.0, 1.0, 1.0])
        assert roc_auc(score, label) == 0.0

    def test_all_tied_scores_give_half(self):
        score = np.full(10, 0.5)
        label = np.array([1.0, 0.0] * 5)
        assert roc_auc(score, label) == 0.5

    def test_matches_pairwise_oracle_with_ties(self):
        rng = RngStream(17)
        for trial in range(20):
            sub = rng.substream(trial)
            # Coarse grid scores force plenty of ties.
            score = np.round(sub.uniform(size=30) * 8) / 8.0
            label = (sub.uniform(size=30) < 0.4).astype(float)
            if label.min() == label.max():
                continue
            got = roc_auc(score, label)
            assert got == pytest.approx(_auc_oracle(score, label),
                                        abs=1e-12), trial

    def test_monotone_transform_invariance(self):
        rng = RngStream(23)
        score = rng.uniform(size=200)
        label = (rng.uniform(size=200) < 0.3).astype(float)
        base = roc_auc(score, label)
        assert roc_auc(np.exp(3.0 * score), label) == pytest.approx(
            base, abs=1e-12)

    def test_complement_symmetry(self):
        rng = RngStream(29)
        score = rng.uniform(size=50)
        label = (rng.uniform(size=50) < 0.5).astype(float)
        a = roc_auc(score, label)
        b = roc_auc(-score, label)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc(np.array([0.1, 0.9]), np.array([1.0, 1.0]))

    def test_random_scores_near_half(self):
        rng = RngStream(31)
        score = rng.uniform(size=10_000)
        label = np.zeros(10_000)
        label[:5_000] = 1.0
        label = label[rng.permutation(10_000)]
        assert abs(roc_auc(score, label) - 0.5) < 0.02
