"""Losses, optimizer steps, and the training loop."""

import tracemalloc

import numpy as np
import pytest

from brownian_lstm import training
from brownian_lstm.activations import ActivationKind
from brownian_lstm.lstm import (PARAM_KEYS, backward_bptt, init_params,
                                sequence_forward)
from brownian_lstm.numerics import RngStream
from brownian_lstm.training import (CLIP_NORM, OptimizerState, TrainConfig,
                                    TrainingDiverged, bce_loss,
                                    clip_gradients, evaluate, mse_loss,
                                    optimizer_step, train)


class TestLosses:
    def test_mse_hand_values(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 4.0]))
        # ((1-0)^2 + (2-4)^2) / 2 = 2.5, grad = 2*(pred-target)/n
        assert loss == pytest.approx(2.5, rel=1e-15)
        np.testing.assert_allclose(grad, [1.0, -2.0], rtol=1e-15)

    def test_mse_zero_at_match(self):
        loss, grad = mse_loss(np.array([0.7]), np.array([0.7]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_mse_finite_difference(self):
        rng = RngStream(1)
        pred = rng.normals(6)
        target = rng.normals(6)
        _, grad = mse_loss(pred, target)
        h = 1e-6
        for j in range(6):
            bump = pred.copy()
            bump[j] += h
            up, _ = mse_loss(bump, target)
            bump[j] -= 2 * h
            dn, _ = mse_loss(bump, target)
            assert grad[j] == pytest.approx((up - dn) / (2 * h), rel=1e-6)

    def test_bce_hand_values(self):
        loss, grad = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        assert grad[0] == pytest.approx(-2.0, rel=1e-12)

    def test_bce_symmetric_labels(self):
        l1, _ = bce_loss(np.array([0.3]), np.array([0.0]))
        l2, _ = bce_loss(np.array([0.7]), np.array([1.0]))
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_bce_clips_extreme_probabilities(self):
        loss, grad = bce_loss(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert np.isfinite(loss)
        np.testing.assert_array_equal(grad, 0.0)

    def test_bce_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="labels"):
            bce_loss(np.array([0.5]), np.array([0.3]))

    def test_bce_finite_difference(self):
        pred = np.array([0.2, 0.8, 0.55])
        target = np.array([1.0, 0.0, 1.0])
        _, grad = bce_loss(pred, target)
        h = 1e-7
        for j in range(3):
            bump = pred.copy()
            bump[j] += h
            up, _ = bce_loss(bump, target)
            bump[j] -= 2 * h
            dn, _ = bce_loss(bump, target)
            assert grad[j] == pytest.approx((up - dn) / (2 * h), rel=1e-5)


class TestClip:
    def test_no_clip_below_threshold(self):
        grads = {"w": np.array([[3.0]]), "alpha": np.array([[4.0]])}
        norm = clip_gradients(grads, 10.0)
        assert norm == pytest.approx(5.0, rel=1e-15)
        assert grads["w"][0, 0] == 3.0 and grads["alpha"][0, 0] == 4.0

    def test_clip_rescales_to_threshold(self):
        grads = {"w": np.array([[30.0]]), "alpha": np.array([[40.0]])}
        clip_gradients(grads, 5.0)
        w, alpha = grads["w"][0, 0], grads["alpha"][0, 0]
        assert np.sqrt(w ** 2 + alpha ** 2) == pytest.approx(5.0, rel=1e-12)
        # Direction preserved.
        assert w / alpha == pytest.approx(0.75)


class TestOptimizerStep:
    def test_sgd_hand_case(self):
        p = init_params(1, 1, 1, seed=0)
        p.w[0, 0] = 1.0
        grads = {key: np.zeros_like(v) for key, v in p.arrays().items()}
        grads["w"][0, 0] = 0.5
        state = OptimizerState()
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
        optimizer_step(p, grads, state, cfg)
        assert p.w[0, 0] == pytest.approx(0.95, rel=1e-15)

    def test_sgd_alpha_updates(self):
        p = init_params(1, 1, 1, seed=0, alpha=0.25)
        grads = {key: np.zeros_like(v) for key, v in p.arrays().items()}
        grads["alpha"][0, 0] = -1.0
        state = OptimizerState()
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
        optimizer_step(p, grads, state, cfg)
        assert p.alpha == pytest.approx(0.35, rel=1e-15)

    def test_adam_first_step_size(self):
        # With zero moment history, Adam's first update has magnitude
        # close to lr regardless of gradient scale.
        p = init_params(1, 1, 1, seed=0)
        start = p.w[0, 0]
        grads = {key: np.zeros_like(v) for key, v in p.arrays().items()}
        grads["w"][0, 0] = 123.0
        state = OptimizerState()
        cfg = TrainConfig(optimizer="adam", learning_rate=0.01)
        optimizer_step(p, grads, state, cfg)
        assert start - p.w[0, 0] == pytest.approx(0.01, rel=1e-6)

    def test_freeze_alpha_holds_through_training(self):
        tr_in, tr_tg, va_in, va_tg = _toy_split(n=20)
        for optimizer in ("adam", "sgd"):
            cfg = TrainConfig(max_epochs=3, batch_size=8, seed=1,
                              optimizer=optimizer, freeze_alpha=True)
            p = init_params(1, 3, 1, seed=2, alpha=0.4)
            best, history = train(p, ActivationKind.brownian(m=5),
                                  tr_in, tr_tg, va_in, va_tg, cfg)
            assert best.alpha == 0.4, optimizer
            assert all(a == 0.4 for a in history.alpha), optimizer


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("inf")), ("learning_rate", float("nan")),
    ])
    def test_rejects_bad_optimizer_settings(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})


def _toy_regression(n=40, t=5, d=1, seed=3):
    rng = RngStream(seed)
    inputs = rng.uniform(size=n * t * d).reshape(n, t, d)
    targets = inputs[:, -1, 0] * 0.5 + 0.1
    return inputs, targets


def _toy_split(n=40, t=5, d=1, seed=3):
    inputs, targets = _toy_regression(n, t, d, seed)
    cut = n - max(1, n // 10)
    return inputs[:cut], targets[:cut], inputs[cut:], targets[cut:]


class TestTrainLoop:
    def test_deterministic_repeat(self):
        tr_in, tr_tg, va_in, va_tg = _toy_split()
        kind = ActivationKind.brownian(m=10)
        cfg = TrainConfig(max_epochs=3, batch_size=16, seed=5)
        runs = []
        for _ in range(2):
            p = init_params(1, 4, 1, seed=7)
            runs.append(train(p, kind, tr_in, tr_tg, va_in, va_tg, cfg))
        (pa, ha), (pb, hb) = runs
        assert pa.w.tobytes() == pb.w.tobytes()
        assert pa.alpha == pb.alpha
        assert ha.train_loss == hb.train_loss
        assert ha.val_loss == hb.val_loss

    def test_history_and_convergence_epoch(self):
        tr_in, tr_tg, va_in, va_tg = _toy_split()
        cfg = TrainConfig(max_epochs=4, batch_size=16, seed=1, patience=50)
        p = init_params(1, 4, 1, seed=2)
        _, history = train(p, ActivationKind("tanh"),
                           tr_in, tr_tg, va_in, va_tg, cfg)
        assert len(history.train_loss) == 4
        assert len(history.val_loss) == 4
        assert len(history.metric) == 4
        assert len(history.alpha) == 4
        want = int(np.argmin(history.val_loss)) + 1
        assert history.epoch_of_convergence == want

    def test_best_val_snapshot_returned(self):
        # The returned params must reproduce the best recorded val loss,
        # not the last epoch's.
        tr_in, tr_tg, va_in, va_tg = _toy_split(n=60)
        cfg = TrainConfig(max_epochs=8, batch_size=16, seed=1, patience=50)
        kind = ActivationKind("tanh")
        p = init_params(1, 4, 1, seed=2)
        best, history = train(p, kind, tr_in, tr_tg, va_in, va_tg, cfg)
        loss, _ = evaluate(best, kind, va_in, va_tg, cfg, None)
        assert loss == pytest.approx(min(history.val_loss), rel=1e-12)

    def test_training_reduces_loss(self):
        tr_in, tr_tg, va_in, va_tg = _toy_split(n=80)
        cfg = TrainConfig(max_epochs=15, batch_size=16, seed=1, patience=50)
        p = init_params(1, 8, 1, seed=4)
        _, history = train(p, ActivationKind("tanh"),
                           tr_in, tr_tg, va_in, va_tg, cfg)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stop_on_flat_validation(self, monkeypatch):
        # Constant targets are fit almost immediately; with a tight
        # patience and a large MIN_DELTA the loop must stop well before
        # max_epochs.
        tr_in, tr_tg, va_in, va_tg = _toy_split(n=60)
        tr_tg = np.full_like(tr_tg, 0.5)
        va_tg = np.full_like(va_tg, 0.5)
        monkeypatch.setattr(training, "MIN_DELTA", 0.5)
        cfg = TrainConfig(max_epochs=50, batch_size=16, seed=1, patience=2)
        p = init_params(1, 4, 1, seed=2)
        _, history = train(p, ActivationKind("tanh"),
                           tr_in, tr_tg, va_in, va_tg, cfg)
        assert len(history.train_loss) < 50

    def test_alpha_guard_raises(self, monkeypatch):
        tr_in, tr_tg, va_in, va_tg = _toy_split()
        monkeypatch.setattr(training, "ALPHA_GUARD", 1e-9)
        cfg = TrainConfig(max_epochs=3, batch_size=16, seed=1)
        p = init_params(1, 4, 1, seed=2, alpha=0.25)
        with pytest.raises(TrainingDiverged):
            train(p, ActivationKind.brownian(m=5),
                  tr_in, tr_tg, va_in, va_tg, cfg)

    @pytest.mark.parametrize("batch_size", [16, 64])
    @pytest.mark.parametrize("name", ["relu", "leaky_relu", "prelu",
                                      "tanh", "gelu", "brownian"])
    def test_every_blow_up_raises_training_diverged(self, name, batch_size,
                                                    monkeypatch):
        # Kinds fail differently (forward state overflowed in a training
        # batch or in validation, non-finite loss, alpha guard), but
        # always as TrainingDiverged naming where.
        tr_in, tr_tg, va_in, va_tg = _toy_split()
        monkeypatch.setattr(training, "CLIP_NORM", 0.0)
        cfg = TrainConfig(max_epochs=3, batch_size=batch_size, seed=1,
                          optimizer="sgd", learning_rate=1e200)
        p = init_params(1, 4, 1, seed=2)
        with pytest.raises(TrainingDiverged,
                           match=r"at epoch \d, (batch \d|validation)$"):
            train(p, ActivationKind(name),
                  tr_in, tr_tg, va_in, va_tg, cfg)

    def test_non_finite_parameter_names_its_key(self, monkeypatch):
        tr_in, tr_tg, va_in, va_tg = _toy_split()
        monkeypatch.setattr(training, "CLIP_NORM", 0.0)
        cfg = TrainConfig(max_epochs=3, batch_size=16, seed=1,
                          optimizer="sgd", learning_rate=1e300)
        p = init_params(1, 4, 1, seed=2)
        with pytest.raises(TrainingDiverged,
                           match="parameter 'w' went non-finite at epoch 1, "
                                 "batch 1"):
            train(p, ActivationKind("tanh"), tr_in, tr_tg * 1e10,
                  va_in, va_tg, cfg)

    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_data_rejected(self, which):
        data = list(_toy_split(n=20))
        data[which] = data[which].copy()
        data[which].flat[0] = np.nan
        cfg = TrainConfig(max_epochs=1, seed=1)
        with pytest.raises(ValueError, match="NaN or an inf"):
            train(init_params(1, 3, 1, seed=2), ActivationKind("relu"),
                  *data, cfg)

    def test_single_batch_step_matches_hand_composition(self):
        # One epoch, one minibatch, SGD: the trained params must equal
        # manually running forward, backward, clip, step.
        tr_in, tr_tg, va_in, va_tg = _toy_split(n=10)
        kind = ActivationKind("tanh")
        cfg = TrainConfig(max_epochs=1, batch_size=16, optimizer="sgd",
                          learning_rate=0.05, seed=6, patience=50)

        manual = init_params(1, 3, 1, seed=9)
        batch = tr_in.transpose(1, 2, 0)
        pred, trace = sequence_forward(manual, batch, kind)
        _, dpred = mse_loss(pred[0], tr_tg)
        grads = backward_bptt(manual, trace, dpred.reshape(1, -1))
        clip_gradients(grads, CLIP_NORM)
        state = OptimizerState()
        optimizer_step(manual, grads, state, cfg)

        p = init_params(1, 3, 1, seed=9)
        best, _ = train(p, kind, tr_in, tr_tg, va_in, va_tg, cfg)
        for key in PARAM_KEYS:
            assert best.arrays()[key].tobytes() == \
                manual.arrays()[key].tobytes(), key

    def test_classification_smoke(self):
        rng = RngStream(11)
        inputs = rng.normals((40, 3, 2))
        targets = (inputs[:, -1, 0] > 0).astype(float)
        cfg = TrainConfig(max_epochs=3, batch_size=16, seed=1, loss="bce")
        p = init_params(2, 4, 1, seed=3)
        _, history = train(p, ActivationKind("relu"), inputs[:32],
                           targets[:32], inputs[32:], targets[32:], cfg)
        assert np.isfinite(history.train_loss).all()
        assert len(history.metric) == len(history.train_loss)
        assert all(0.0 <= m <= 1.0 for m in history.metric)

    def test_history_csv_header(self, tmp_path):
        tr_in, tr_tg, va_in, va_tg = _toy_split(n=20)
        cfg = TrainConfig(max_epochs=2, batch_size=8, seed=1)
        p = init_params(1, 3, 1, seed=2)
        _, history = train(p, ActivationKind("relu"),
                           tr_in, tr_tg, va_in, va_tg, cfg)
        out = tmp_path / "history.csv"
        history.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,metric,alpha"
        assert len(lines) == 1 + len(history.train_loss)
        assert lines[1].startswith("1,")

    def test_rejects_mismatched_lengths(self):
        tr_in, tr_tg, va_in, va_tg = _toy_split(n=20)
        cfg = TrainConfig(max_epochs=1, seed=1)
        p = init_params(1, 3, 1, seed=2)
        with pytest.raises(ValueError, match="targets"):
            train(p, ActivationKind("relu"), tr_in, tr_tg[:-1],
                  va_in, va_tg, cfg)


class TestEvaluate:
    def test_matches_direct_forward_deterministic(self):
        inputs, targets = _toy_regression(n=12)
        p = init_params(1, 3, 1, seed=2)
        kind = ActivationKind("tanh")
        loss, preds = evaluate(p, kind, inputs, targets, TrainConfig(), None)
        direct, _ = sequence_forward(p, inputs.transpose(1, 2, 0), kind)
        np.testing.assert_allclose(preds, direct[0], rtol=1e-12)
        want, _ = mse_loss(direct[0], targets)
        assert loss == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("eval_noise", ["stochastic", "mean"])
    def test_brownian_matches_recorded_forward_bitwise(self, eval_noise):
        # 300 windows: evaluate scores them in chunks of 256 and 44.
        inputs, targets = _toy_regression(n=300)
        p = init_params(1, 3, 1, seed=2)
        kind = ActivationKind.brownian(m=1000)
        config = TrainConfig(eval_noise=eval_noise)
        # Under "mean" evaluate scores the ReLU network and draws nothing,
        # so rng_direct, never drawn from, must match rng_eval at the end.
        net = kind if eval_noise == "stochastic" else ActivationKind("relu")
        rng_eval, rng_direct = RngStream(5, 23), RngStream(5, 23)
        loss, preds = evaluate(p, kind, inputs, targets, config, rng_eval)
        chunks = []
        for start in (0, 256):
            x = np.ascontiguousarray(
                inputs[start:start + 256].transpose(1, 2, 0))
            pred, trace = sequence_forward(p, x, net, rng=rng_direct)
            assert len(trace.steps) == inputs.shape[1]
            chunks.append(pred[0])
        direct = np.concatenate(chunks)
        assert preds.tobytes() == direct.tobytes()
        assert loss == mse_loss(direct, targets)[0]
        assert (rng_eval.standard_normals(5).tobytes()
                == rng_direct.standard_normals(5).tobytes())

    def test_scoring_memory_stays_bounded(self):
        # One 256-window call at the paper's shape (T = 60, d = 1, n = 50,
        # M = 1000).  A recorded trace of it holds about 77 MB; without
        # one only a step's arrays are live at a time.
        inputs = RngStream(3).uniform(size=256 * 60).reshape(256, 60, 1)
        p = init_params(1, 50, 1, seed=4)
        kind = ActivationKind.brownian(m=1000)
        tracemalloc.start()
        try:
            evaluate(p, kind, inputs, np.zeros(256), TrainConfig(),
                     RngStream(5, 23))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_mean_noise_mode_is_deterministic(self):
        inputs, targets = _toy_regression(n=12)
        p = init_params(1, 3, 1, seed=2)
        kind = ActivationKind.brownian(m=10)
        cfg = TrainConfig(eval_noise="mean")
        _, a = evaluate(p, kind, inputs, targets, cfg, None)
        _, b = evaluate(p, kind, inputs, targets, cfg, None)
        assert a.tobytes() == b.tobytes()

    def test_stochastic_mode_needs_rng(self):
        inputs, targets = _toy_regression(n=6)
        p = init_params(1, 3, 1, seed=2)
        kind = ActivationKind.brownian(m=10)
        with pytest.raises(ValueError, match="RngStream"):
            evaluate(p, kind, inputs, targets, TrainConfig(), None)
