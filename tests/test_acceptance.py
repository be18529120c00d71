"""Acceptance suite: one test per shipping criterion.

Each test prints a single `ACCEPTANCE NN PASS ...` line on success (run
with -s or -rA to see them); the pytest verdict itself is the pass/fail
signal.  Budgets are asserted with wall-clock checks.
"""

import math
import os
import time

import numpy as np
import pytest

from brownian_lstm.activations import (ActivationCache, ActivationKind,
                                       backward_alpha, forward)
from brownian_lstm.data import describe, load_csv_prices, minmax_normalize
from brownian_lstm.experiments import (CLASSIFICATION_HEADER,
                                       REGRESSION_HEADER, ExperimentConfig,
                                       run_classification, run_comparison,
                                       run_sensitivity)
from brownian_lstm.lstm import (PARAM_KEYS, backward_bptt, init_params,
                                sequence_forward)
from brownian_lstm.metrics import confusion_metrics, roc_auc
from brownian_lstm.numerics import RngStream
from brownian_lstm.training import mse_loss

from helpers import numeric_gradients, rel_error
from test_metrics import _auc_oracle, _confusion_oracle

SERIES_SPEC = "sine:2024,1500"
FIXED_ALPHAS = (0.014, 0.464, 0.48, 0.925, 0.944)


def _announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS {message}")


def _regression_config(**overrides) -> ExperimentConfig:
    kw = dict(synth=SERIES_SPEC, lookback=60, split=0.8, m_values=(1000,))
    kw.update(overrides)
    return ExperimentConfig(**kw)


def _run_and_capture(builder, out_dir, name):
    """Run a harness, write its report, return (report, bytes, elapsed)."""
    start = time.perf_counter()
    report = builder()
    elapsed = time.perf_counter() - start
    csv_path, json_path = report.write(str(out_dir), name)
    blob = open(csv_path, "rb").read() + open(json_path, "rb").read()
    return report, blob, elapsed


def _brownian_five_seeds():
    return run_comparison(_regression_config(activations=("brownian",),
                                             seeds=(1, 2, 3, 4, 5)))


def _comparison_all_six():
    return run_comparison(_regression_config(seeds=(1,)))


def _sensitivity_run():
    return run_sensitivity(_regression_config(activations=("brownian",),
                                              m_values=(500, 1000, 1500),
                                              seeds=(1,)))


def _classification_run():
    return run_classification(ExperimentConfig(
        synth="tab:99,600,8", seeds=(1,), m_values=(1000,),
        alphas=FIXED_ALPHAS))


@pytest.fixture(scope="module")
def outdirs(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def brownian_five(outdirs):
    return _run_and_capture(_brownian_five_seeds, outdirs / "b5",
                            "comparison")


@pytest.fixture(scope="module")
def comparison_six(outdirs):
    return _run_and_capture(_comparison_all_six, outdirs / "c6",
                            "comparison")


@pytest.fixture(scope="module")
def sensitivity(outdirs):
    return _run_and_capture(_sensitivity_run, outdirs / "sens",
                            "sensitivity")


@pytest.fixture(scope="module")
def classification(outdirs):
    return _run_and_capture(_classification_run, outdirs / "cls",
                            "classification")


def test_01_relu_reduction_identity():
    start = time.perf_counter()
    x = RngStream(1).uniform(-10.0, 10.0, 1000)
    want, _ = forward(ActivationKind.relu(), x)
    for m in (1, 500, 1500):
        kind = ActivationKind.brownian(m=m)
        got, _ = forward(kind, x, alpha=0.0, rng=RngStream(2))
        assert got.tobytes() == want.tobytes(), f"M={m}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _announce(1, "brownian(alpha=0) equals relu bitwise for 1000 inputs "
                 "in [-10, 10], M in {1, 500, 1500}")


def test_02_negative_branch_law():
    start = time.perf_counter()
    n_calls = 100_000
    m = 1000
    x = np.full(n_calls, -1.0)
    y, _ = forward(ActivationKind.brownian(m=m), x, alpha=1.0,
                   rng=RngStream(42))
    sigma = math.sqrt(1.0 / m)
    mean_bound = 3.0 * sigma / math.sqrt(n_calls)
    assert abs(y.mean()) < mean_bound, f"{y.mean():.2e} vs {mean_bound:.2e}"
    variance = y.var(ddof=1)
    assert abs(variance / (1.0 / m) - 1.0) < 0.05, f"var={variance:.6f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    _announce(2, f"x=-1, alpha=1, M=1000 over 1e5 calls: |mean| "
                 f"{abs(y.mean()):.2e} < {mean_bound:.2e}, variance "
                 f"{variance:.6f} within 5% of 0.001")


def test_03_variance_scales_inverse_m():
    start = time.perf_counter()
    n_calls = 200_000
    x = np.full(n_calls, -1.0)
    variances = {}
    for m in (1, 10, 100, 1000):
        y, _ = forward(ActivationKind.brownian(m=m), x, alpha=1.0,
                       rng=RngStream(101 + m))
        variances[m] = y.var(ddof=1)
    for low, high in ((1, 10), (10, 100), (100, 1000)):
        ratio = variances[low] / variances[high]
        assert abs(ratio / 10.0 - 1.0) < 0.10, (
            f"var(M={low})/var(M={high}) = {ratio:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    _announce(3, "variance at x=-1 scales as 1/M within 10% per decade "
                 "for M in {1, 10, 100, 1000}")


def test_04_gradient_exactness():
    start = time.perf_counter()
    kinds = [ActivationKind.relu(), ActivationKind.leaky_relu(),
             ActivationKind.prelu(), ActivationKind.tanh(),
             ActivationKind.gelu(), ActivationKind.brownian(m=10)]
    for seed in range(20):
        for kind in kinds:
            params = init_params(2, 3, 1, seed=500 + seed)
            x = RngStream(600 + seed).normals((4, 2))
            target = np.array([0.3])
            if kind.stochastic:
                pred, trace = sequence_forward(params, x, kind,
                                               rng=RngStream(700 + seed))
                noise = trace.noise_plan()
            else:
                pred, trace = sequence_forward(params, x, kind)
                noise = None
            _, dpred = mse_loss(pred[0], target)
            grads = backward_bptt(params, trace, dpred.reshape(1, -1))
            fd = numeric_gradients(params, kind, x, target, "linear", noise)
            tol = 1e-4 if kind.stochastic else 1e-6
            for key in PARAM_KEYS:
                err = rel_error(grads[key], fd[key])
                assert err < tol, (kind.name, key, seed, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    _announce(4, "all parameter gradients incl. d/dalpha match central "
                 "differences (h=1e-5) on d=2,n=3,T=4 for six activations "
                 "x 20 seeds (rel err < 1e-6 deterministic, < 1e-4 frozen "
                 "noise)")


def test_05_alpha_gradient_formula():
    start = time.perf_counter()
    kind = ActivationKind.brownian(m=4)
    # x = -4, zbar = 0.7: b = sqrt(4) * 0.7 = 1.4; delta = 1.
    cache = ActivationCache(kind=kind, inputs=np.array([-4.0]),
                            zbar=np.array([0.7]), alpha=0.5)
    assert backward_alpha(kind, cache, np.array([1.0])) == -1.4
    # delta = -2 flips the sign through the chain rule.
    assert backward_alpha(kind, cache, np.array([-2.0])) == 2.8
    # Positive inputs contribute exactly zero.
    cache = ActivationCache(kind=kind, inputs=np.array([3.0]),
                            zbar=np.array([0.7]), alpha=0.5)
    assert backward_alpha(kind, cache, np.array([5.0])) == 0.0
    # x = 0 sits on the stochastic branch but b = sqrt(0) * z = 0.
    cache = ActivationCache(kind=kind, inputs=np.array([0.0]),
                            zbar=np.array([0.9]), alpha=0.5)
    assert backward_alpha(kind, cache, np.array([5.0])) == 0.0
    # Mixed vector: only the negative entry contributes, -1 * 0.5 = -0.5
    # with b = sqrt(1) * 0.5.
    cache = ActivationCache(kind=kind,
                            inputs=np.array([-1.0, 2.0]),
                            zbar=np.array([0.5, 0.3]), alpha=0.5)
    assert backward_alpha(kind, cache, np.array([1.0, 7.0])) == -0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _announce(5, "backward_alpha equals -delta * 1{x<=0} * b exactly on "
                 "hand-built cases")


def test_06_end_to_end_regression(brownian_five, comparison_six):
    report5, _, elapsed5 = brownian_five
    report6, _, elapsed6 = comparison_six
    seed_rows = [row for row in report5.rows if row[1] != "mean"]
    assert len(seed_rows) == 5
    r2_idx = REGRESSION_HEADER.index("R2(Test)")
    scores = [row[r2_idx] for row in seed_rows]
    passing = sum(score >= 0.90 for score in scores)
    assert passing >= 4, f"R2(Test) per seed: {scores}"

    assert report6.header == REGRESSION_HEADER
    names = [row[2] for row in report6.rows]
    assert names == ["BrownianReLU", "ReLU", "LeakyReLU", "PReLU", "Tanh",
                     "GELU"]
    epoch_idx = REGRESSION_HEADER.index("Epoch of convergence")
    for row in report6.rows:
        assert isinstance(row[REGRESSION_HEADER.index("MSE")], float)
        assert isinstance(row[r2_idx], float)
        assert row[epoch_idx] <= 50
    assert elapsed5 + elapsed6 < 300.0, f"{elapsed5 + elapsed6:.1f}s"
    _announce(6, f"five-seed test R2 {['%.4f' % s for s in scores]} "
                 f"(>= 0.90 on {passing}/5) and complete six-activation "
                 f"comparison report in {elapsed5 + elapsed6:.0f}s")


def test_07_sensitivity_harness(sensitivity):
    report, _, elapsed = sensitivity
    assert report.header == REGRESSION_HEADER
    m_idx = REGRESSION_HEADER.index("M")
    epoch_idx = REGRESSION_HEADER.index("Epoch of convergence")
    ms = [row[m_idx] for row in report.rows if row[1] != "mean"]
    assert ms == [500, 1000, 1500]
    for row in report.rows:
        if row[1] == "mean":
            continue
        assert row[epoch_idx] <= 50, row
    assert elapsed < 600.0, f"{elapsed:.1f}s"
    _announce(7, f"sensitivity report covers M in {{500, 1000, 1500}} with "
                 f"epoch of convergence <= 50 in every cell ({elapsed:.0f}s)")


def test_08_metric_oracles():
    import itertools
    start = time.perf_counter()
    probs = [0.1, 0.9]
    for pred_bits in itertools.product((0, 1), repeat=4):
        prob = np.array([probs[b] for b in pred_bits])
        for label_bits in itertools.product((0, 1), repeat=4):
            label = np.array(label_bits, dtype=float)
            got = confusion_metrics(prob, label)
            want = _confusion_oracle(prob, label)
            for key, value in want.items():
                assert got[key] == pytest.approx(value, abs=1e-15)

    rng = RngStream(77)
    score = rng.uniform(size=10_000)
    label = np.zeros(10_000)
    label[:5_000] = 1.0
    label = label[rng.permutation(10_000)]
    auc = roc_auc(score, label)
    assert abs(auc - 0.5) < 0.02, auc

    perfect = roc_auc(np.array([0.1, 0.4, 0.6, 0.9]),
                      np.array([0.0, 0.0, 1.0, 1.0]))
    assert perfect == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    _announce(8, f"confusion matches brute force on all 256 length-4 "
                 f"patterns; random balanced AUC {auc:.4f} within 0.5 "
                 f"+/- 0.02; perfect AUC == 1 exactly")


def test_09_classification_harness(classification):
    report, _, elapsed = classification
    assert report.header == CLASSIFICATION_HEADER
    names = [row[2] for row in report.rows]
    assert names == ["BrownianReLU"] * 5 + ["ReLU", "LeakyReLU", "PReLU",
                                            "Tanh", "GELU"]
    alphas = [row[3] for row in report.rows[:5]]
    assert alphas == list(FIXED_ALPHAS)
    for row in report.rows:
        for value in row[4:]:
            assert 0.0 <= value <= 1.0, row
    assert elapsed < 180.0, f"{elapsed:.1f}s"
    _announce(9, f"classification report on a 75/25 synthetic dataset has "
                 f"5 fixed-alpha rows + 5 baselines with all metrics in "
                 f"[0, 1] ({elapsed:.0f}s)")


def test_10_reports_are_byte_identical(outdirs, brownian_five,
                                       comparison_six, sensitivity,
                                       classification):
    reruns = (
        ("b5", _brownian_five_seeds, brownian_five, "comparison"),
        ("c6", _comparison_all_six, comparison_six, "comparison"),
        ("sens", _sensitivity_run, sensitivity, "sensitivity"),
        ("cls", _classification_run, classification, "classification"),
    )
    for tag, builder, first, name in reruns:
        _, blob, _ = _run_and_capture(builder, outdirs / f"{tag}-rerun",
                                      name)
        assert blob == first[1], f"{tag} report changed across reruns"
    _announce(10, "repeating the regression, sensitivity, and "
                  "classification harnesses with identical seeds "
                  "reproduces the report files byte for byte")


def test_11_describe_matches_two_pass_oracle():
    from brownian_lstm.data import synth_gbm
    series = synth_gbm(7, 1500)
    normalized, _, _ = minmax_normalize(series.values)
    mean, variance = describe(normalized)
    values = normalized.tolist()
    n = len(values)
    oracle_mean = math.fsum(values) / n
    oracle_var = math.fsum((v - oracle_mean) ** 2 for v in values) / (n - 1)
    assert mean == oracle_mean
    assert variance == oracle_var
    _announce(11, f"describe equals the two-pass fsum oracle exactly "
                  f"(mean {mean:.6f}, variance {variance:.6f})")


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
APPLE_CSV = os.environ.get("APPLE_CSV",
                           os.path.join(REPO_ROOT, "data", "apple.csv"))


def test_11b_reference_series_summary_if_available():
    """Conditional check against the published reference values.

    Needs a daily Apple closing-price CSV (Date/Close schema) at
    data/apple.csv under the repository root or $APPLE_CSV; skipped when
    the file is absent because the dataset is not redistributable.
    """
    if not os.path.exists(APPLE_CSV):
        pytest.skip(f"reference series not available at {APPLE_CSV}")
    series = load_csv_prices(APPLE_CSV)
    normalized, _, _ = minmax_normalize(series.values)
    mean, variance = describe(normalized)
    assert f"{mean:.6f}" == "0.326708"
    assert f"{variance:.6f}" == "0.057563"
    _announce(11, f"reference series summary reproduces mean 0.326708 / "
                  f"variance 0.057563 at 6 decimals")
