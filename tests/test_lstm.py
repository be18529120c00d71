"""LSTM initialisation, sequence forward, BPTT gradients, and checkpoints."""

import json
import os
import re

import numpy as np
import pytest

from brownian_lstm.activations import (ActivationKind, backward_alpha,
                                       backward_input)
from brownian_lstm.lstm import (PARAM_KEYS, LstmParams, backward_bptt,
                                init_params, load_checkpoint,
                                save_checkpoint, sequence_forward)
from brownian_lstm.numerics import RngStream
from brownian_lstm.training import TrainConfig, evaluate

from helpers import loss_at, numeric_gradients, rel_error

DET_KINDS = [ActivationKind.relu(), ActivationKind.leaky_relu(),
             ActivationKind.prelu(), ActivationKind.tanh(),
             ActivationKind.gelu()]
# A v1 checkpoint of init_params(2, 3, 1, seed=5) with a brownian kind
# (M = 500), written by the per-gate implementation that defined the
# format.
FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "checkpoint_v1.json")


def _zero_params(d, n, out, alpha=0.25):
    return LstmParams(w=np.zeros((4 * n, d)), u=np.zeros((4 * n, n)),
                      b=np.zeros((4 * n, 1)), w_y=np.zeros((out, n)),
                      b_y=np.zeros((out, 1)),
                      alpha_array=np.full((1, 1), alpha))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestInit:
    def test_determinism(self):
        a = init_params(3, 5, 1, seed=11)
        b = init_params(3, 5, 1, seed=11)
        for key in PARAM_KEYS:
            assert a.arrays()[key].tobytes() == b.arrays()[key].tobytes()
        assert not np.array_equal(a.w, init_params(3, 5, 1, seed=12).w)

    def test_shapes(self):
        p = init_params(3, 5, 2, seed=1)
        shapes = {key: value.shape for key, value in p.arrays().items()}
        assert shapes == {"w": (20, 3), "u": (20, 5), "b": (20, 1),
                          "w_y": (2, 5), "b_y": (2, 1), "alpha": (1, 1)}

    def test_biases_and_alpha(self):
        # The forget gate is the first row block of the stacked bias.
        p = init_params(2, 4, 1, seed=0)
        np.testing.assert_array_equal(p.b[:4], np.ones((4, 1)))
        np.testing.assert_array_equal(p.b[4:], 0.0)
        np.testing.assert_array_equal(p.b_y, 0.0)
        assert p.alpha == 0.25

    def test_xavier_variance(self):
        # U(-a, a) with a = sqrt(6 / (fan_in + fan_out)) has variance
        # a^2 / 3 = 2 / (fan_in + fan_out).
        p = init_params(100, 100, 1, seed=5)
        sample_var = p.u[:100].var(ddof=1)
        assert abs(sample_var / (2.0 / 200) - 1.0) < 0.15

    def test_bounds(self):
        p = init_params(10, 20, 1, seed=9)
        limit = np.sqrt(6.0 / 30)
        assert np.abs(p.w).max() < limit

    def test_bad_dims(self):
        with pytest.raises(ValueError, match="positive"):
            init_params(0, 5, 1, seed=1)


class TestCellForward:
    """One cell step from the zero state, read from trace.steps[0]."""

    def test_zero_params_relu_hand_case(self):
        # All weights zero and candidate bias 2: every gate is
        # sigmoid(0) = 0.5, c~ = relu(2) = 2, C = 0.5 * 0 + 0.5 * 2 = 1,
        # h = 0.5 * relu(1).
        p = _zero_params(1, 1, 1)
        p.b[3] = 2.0
        _, trace = sequence_forward(p, np.array([[3.0]]),
                                    ActivationKind.relu())
        step = trace.steps[0]
        assert step.c[0, 0] == 1.0
        assert step.h[0, 0] == 0.5

    def test_zero_params_tanh_hand_case(self):
        p = _zero_params(1, 1, 1)
        p.b[3] = 2.0
        _, trace = sequence_forward(p, np.array([[1.0]]),
                                    ActivationKind.tanh())
        step = trace.steps[0]
        assert step.c[0, 0] == 0.5 * np.tanh(2.0)
        assert step.h[0, 0] == pytest.approx(
            0.5 * np.tanh(0.5 * np.tanh(2.0)), rel=1e-15)

    def test_shapes_single_and_batch(self):
        p = init_params(3, 4, 1, seed=2)
        _, trace = sequence_forward(p, np.zeros((1, 3)),
                                    ActivationKind.tanh())
        assert trace.steps[0].h.shape == (4, 1)
        assert trace.steps[0].c.shape == (4, 1)
        _, trace = sequence_forward(p, np.zeros((1, 3, 7)),
                                    ActivationKind.tanh())
        assert trace.steps[0].h.shape == (4, 7)
        assert trace.steps[0].c.shape == (4, 7)

    def test_gates_strictly_inside_unit_interval(self):
        p = init_params(2, 6, 1, seed=3)
        x = RngStream(4).normals((1, 2, 5))
        _, trace = sequence_forward(p, x, ActivationKind.tanh())
        step = trace.steps[0]
        for gate in (step.f, step.i, step.o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)


class TestSequenceForward:
    def test_one_step_equals_cell_plus_head(self):
        # Rows of the stacked matrices are [f; i; o; c]; from the zero
        # state C = i * c~ and h = o * tanh(C).
        n = 3
        p = init_params(2, n, 1, seed=6)
        x = RngStream(7).normals((1, 2))
        pred, trace = sequence_forward(p, x, ActivationKind.tanh())
        z = p.w @ x[0].reshape(-1, 1) + p.b
        f, i, o = (_sigmoid(z[k * n:(k + 1) * n]) for k in range(3))
        c = i * np.tanh(z[3 * n:])
        h = o * np.tanh(c)
        step = trace.steps[0]
        for got, want in ((step.f, f), (step.i, i), (step.o, o),
                          (step.c, c), (step.h, h),
                          (pred, p.w_y @ h + p.b_y)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_zero_params_heads(self):
        p = _zero_params(1, 2, 1)
        x = np.ones((4, 1))
        pred, _ = sequence_forward(p, x, ActivationKind.relu())
        assert pred[0, 0] == 0.0
        prob, _ = sequence_forward(p, x, ActivationKind.relu(),
                                   head="sigmoid")
        assert prob[0, 0] == 0.5

    def test_batch_columns_match_single_runs(self):
        p = init_params(2, 4, 1, seed=8)
        kind = ActivationKind.gelu()
        seqs = RngStream(9).normals((5, 2, 3))
        batch_pred, _ = sequence_forward(p, seqs, kind)
        for col in range(3):
            single, _ = sequence_forward(p, seqs[:, :, col], kind)
            np.testing.assert_allclose(single[0, 0], batch_pred[0, col],
                                       rtol=1e-12)

    def test_brownian_alpha_zero_matches_relu_bitwise(self):
        p = init_params(1, 4, 1, seed=10, alpha=0.0)
        x = RngStream(11).normals((6, 1))
        pred_relu, _ = sequence_forward(p, x, ActivationKind.relu())
        pred_br, _ = sequence_forward(p, x, ActivationKind.brownian(m=500),
                                      rng=RngStream(12))
        assert pred_relu.tobytes() == pred_br.tobytes()

    def test_empty_sequence_rejected(self):
        p = init_params(1, 2, 1, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            sequence_forward(p, np.zeros((0, 1)), ActivationKind.relu())

    def test_feature_dim_mismatch_rejected(self):
        p = init_params(2, 2, 1, seed=1)
        with pytest.raises(ValueError, match="feature dim"):
            sequence_forward(p, np.zeros((3, 5)), ActivationKind.relu())

    def test_noise_plan_replay_is_bit_identical(self):
        p = init_params(1, 3, 1, seed=13)
        kind = ActivationKind.brownian(m=20)
        x = RngStream(14).normals((4, 1))
        pred, trace = sequence_forward(p, x, kind, rng=RngStream(15))
        replay, _ = sequence_forward(p, x, kind, noise=trace.noise_plan())
        assert pred.tobytes() == replay.tobytes()

    @pytest.mark.parametrize("kind,noise,head", [
        (ActivationKind.brownian(m=1000), "sample", "linear"),
        (ActivationKind.brownian(m=1000), "mean", "linear"),
        (ActivationKind.relu(), "sample", "linear"),
        (ActivationKind.brownian(m=1000), "sample", "sigmoid"),
    ])
    def test_unrecorded_forward_matches_recorded(self, kind, noise, head):
        # 300 columns: the width evaluate splits into 256 + 44.
        p = init_params(2, 5, 1, seed=16, alpha=0.4)
        x = RngStream(17).normals((6, 2, 300))
        rng_rec, rng_free = RngStream(18, 3), RngStream(18, 3)
        # At the noise mean the network is the ReLU network.
        net = ActivationKind.relu() if noise == "mean" else kind
        rec, rec_trace = sequence_forward(p, x, net, rng=rng_rec, head=head)
        free, trace = sequence_forward(p, x, net, rng=rng_free, head=head,
                                       record=False)
        assert free.tobytes() == rec.tobytes()
        assert len(rec_trace.steps) == 6
        assert trace.steps == [] and trace.prediction is free
        assert (rng_free.standard_normals(5).tobytes()
                == rng_rec.standard_normals(5).tobytes())
        with pytest.raises(ValueError, match="completed forward pass"):
            backward_bptt(p, trace, np.ones_like(free))
        if noise == "mean":
            rng_eval = RngStream(18, 3)
            _, preds = evaluate(p, kind, x.transpose(2, 0, 1), np.zeros(300),
                                TrainConfig(eval_noise="mean"), rng_eval)
            relu = [sequence_forward(
                p, np.ascontiguousarray(x[:, :, start:start + 256]), net,
                record=False)[0][0] for start in (0, 256)]
            assert preds.tobytes() == np.concatenate(relu).tobytes()
            # No noise was drawn.
            assert (rng_eval.standard_normals(5).tobytes()
                    == RngStream(18, 3).standard_normals(5).tobytes())


class TestBackwardBptt:
    def test_zero_upstream_gives_zero_grads(self):
        p = init_params(2, 3, 1, seed=20)
        x = RngStream(21).normals((4, 2))
        pred, trace = sequence_forward(p, x, ActivationKind.tanh())
        grads = backward_bptt(p, trace, np.zeros((1, 1)))
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(grads[key], 0.0)

    @pytest.mark.parametrize("kind", DET_KINDS,
                             ids=[k.name for k in DET_KINDS])
    def test_deterministic_gradients_match_finite_differences(self, kind):
        for seed in range(3):
            p = init_params(2, 3, 1, seed=30 + seed)
            x = RngStream(40 + seed).normals((4, 2))
            target = np.array([0.3])
            pred, trace = sequence_forward(p, x, kind)
            loss, dpred = _mse(pred, target)
            grads = backward_bptt(p, trace, dpred)
            fd = numeric_gradients(p, kind, x, target, "linear", None)
            for key in PARAM_KEYS:
                assert rel_error(grads[key], fd[key]) < 1e-6, key

    def test_brownian_gradients_match_frozen_finite_differences(self):
        kind = ActivationKind.brownian(m=15)
        for seed in range(3):
            p = init_params(2, 3, 1, seed=50 + seed)
            x = RngStream(60 + seed).normals((4, 2))
            target = np.array([0.3])
            pred, trace = sequence_forward(p, x, kind,
                                           rng=RngStream(70 + seed))
            noise = trace.noise_plan()
            loss, dpred = _mse(pred, target)
            grads = backward_bptt(p, trace, dpred)
            fd = numeric_gradients(p, kind, x, target, "linear", noise)
            for key in PARAM_KEYS:
                assert rel_error(grads[key], fd[key]) < 1e-4, key

    def test_sigmoid_head_gradients_match_finite_differences(self):
        kind = ActivationKind.tanh()
        p = init_params(2, 3, 1, seed=80)
        x = RngStream(81).normals((4, 2))
        label = np.array([1.0])
        pred, trace = sequence_forward(p, x, kind, head="sigmoid")
        from brownian_lstm.training import bce_loss
        loss, dpred = bce_loss(pred[0], label)
        grads = backward_bptt(p, trace, dpred.reshape(1, 1))
        fd = numeric_gradients(p, kind, x, label, "sigmoid", None)
        for key in PARAM_KEYS:
            assert rel_error(grads[key], fd[key]) < 1e-6, key

    def test_alpha_gradient_decomposes_over_sites(self):
        # BPTT's dL/dalpha equals the sum of per-site backward_alpha
        # contributions taken from the recorded caches.
        kind = ActivationKind.brownian(m=10)
        p = init_params(1, 3, 1, seed=90)
        x = RngStream(91).normals((3, 1))
        pred, trace = sequence_forward(p, x, kind, rng=RngStream(92))
        grads = backward_bptt(p, trace, np.array([[1.0]]))

        # Recompute the per-step upstream signals by replaying the
        # backward recurrence with the public per-site primitives.
        dh = p.w_y.T @ np.array([[1.0]])
        dc = np.zeros_like(dh)
        total = 0.0
        for step in reversed(trace.steps):
            do = dh * step.a
            da = dh * step.o
            dc = dc + backward_input(kind, step.cell_cache, da)
            total += backward_alpha(kind, step.cell_cache, da)
            df = dc * step.c_prev
            di = dc * step.c_tilde
            dct = dc * step.i
            dzc = backward_input(kind, step.cand_cache, dct)
            total += backward_alpha(kind, step.cand_cache, dct)
            dz = np.concatenate([df * step.f * (1 - step.f),
                                 di * step.i * (1 - step.i),
                                 do * step.o * (1 - step.o), dzc])
            dh = p.u.T @ dz
            dc = dc * step.f
        assert grads["alpha"][0, 0] == pytest.approx(total, rel=1e-12)

    def test_dpred_shape_mismatch_rejected(self):
        p = init_params(1, 2, 1, seed=1)
        pred, trace = sequence_forward(p, np.ones((2, 1)),
                                       ActivationKind.relu())
        with pytest.raises(ValueError, match="d_pred shape"):
            backward_bptt(p, trace, np.ones((2, 2)))


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        p = init_params(3, 5, 2, seed=33, alpha=0.371)
        kind = ActivationKind.brownian(m=750)
        path = tmp_path / "model.json"
        save_checkpoint(str(path), p, kind)
        loaded, loaded_kind = load_checkpoint(str(path))
        assert loaded_kind == kind
        assert loaded.alpha == p.alpha
        for key in PARAM_KEYS:
            assert (loaded.arrays()[key].tobytes()
                    == p.arrays()[key].tobytes())
        path2 = tmp_path / "model2.json"
        save_checkpoint(str(path2), loaded, loaded_kind)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_check(self, tmp_path):
        p = init_params(1, 2, 1, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(str(path), p, ActivationKind.relu())
        doc = path.read_text().replace('"format_version": 1',
                                       '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(str(path))

    def test_init_writes_the_fixture_bytes(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(str(path), init_params(2, 3, 1, seed=5),
                        ActivationKind.brownian(m=500))
        with open(FIXTURE, "rb") as fh:
            assert path.read_bytes() == fh.read()

    def test_fixture_round_trips_byte_for_byte(self, tmp_path):
        params, kind = load_checkpoint(FIXTURE)
        path = tmp_path / "model.json"
        save_checkpoint(str(path), params, kind)
        with open(FIXTURE, "rb") as fh:
            assert path.read_bytes() == fh.read()

    @pytest.mark.parametrize("key,value,message", [
        ("u_f", np.zeros((5, 4)).tolist(),
         r"'u_f' has shape \(5, 4\), expected \(4, 4\)"),
        ("u_f", np.zeros((4, 5)).tolist(),
         r"'u_f' has shape \(4, 5\), expected \(4, 4\)"),
        ("w_c", np.zeros((4, 3)).tolist(),
         r"'w_c' has shape \(4, 3\), expected \(4, 2\)"),
        ("b_o", np.zeros(4).tolist(),
         r"'b_o' has shape \(4,\), expected \(4, 1\)"),
        ("w_y", np.zeros((1, 5)).tolist(),
         r"'w_y' has shape \(1, 5\), expected \(1, 4\)"),
        ("b_y", np.zeros((2, 1)).tolist(),
         r"'b_y' has shape \(2, 1\), expected \(1, 1\)"),
        ("u_o", [[0.0] * 4] * 3 + [[0.0]], r"'u_o' is not a numeric matrix"),
        ("w_i", None, r"missing key 'w_i'"),
        ("b_y", None, r"missing key 'b_y'"),
        ("w_y", [[0.0, float("inf"), 0.0, 0.0]],
         r"'w_y' is not finite"),
        ("b_f", [[0.0], [float("nan")], [0.0], [0.0]],
         r"'b_f' is not finite"),
    ])
    def test_malformed_arrays_rejected(self, tmp_path, key, value, message):
        # d = 2, n = 4, out = 1.
        path = tmp_path / "model.json"
        save_checkpoint(str(path), init_params(2, 4, 1, seed=1),
                        ActivationKind.relu())
        doc = json.loads(path.read_text())
        if value is None:
            del doc["arrays"][key]
        else:
            doc["arrays"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("section,key,value,message", [
        ("activation", "m", "5",
         r"field 'activation.m' holds '5', expected int"),
        ("activation", "m", 5.0,
         r"field 'activation.m' holds 5.0, expected int"),
        ("activation", "slope", None,
         r"field 'activation.slope' holds None, expected int or float"),
        ("activation", "name", ["relu"],
         r"field 'activation.name' holds \['relu'\], expected str"),
        ("dims", "hidden", "4", r"field 'dims.hidden' holds '4'"),
        (None, "alpha", "x",
         r"field 'alpha' holds 'x', expected int or float"),
        (None, "alpha", True, r"field 'alpha' holds True"),
        (None, "alpha", float("nan"), r"field 'alpha' holds nan"),
        (None, "alpha", float("-inf"), r"field 'alpha' holds -inf"),
    ])
    def test_wrongly_typed_fields_rejected(self, tmp_path, section, key,
                                           value, message):
        path = tmp_path / "model.json"
        save_checkpoint(str(path), init_params(2, 4, 1, seed=1),
                        ActivationKind.relu())
        doc = json.loads(path.read_text())
        (doc if section is None else doc[section])[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key,value", [
        ("epsilon", 1e-05), ("input_grad", "zero"), ("slope", 0.2),
    ])
    def test_fixed_activation_fields_rejected(self, tmp_path, key, value):
        # v1 files hold these fields at the constants the code uses.
        path = tmp_path / "model.json"
        save_checkpoint(str(path), init_params(2, 4, 1, seed=1),
                        ActivationKind.brownian(m=500))
        doc = json.loads(path.read_text())
        doc["activation"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=rf"field 'activation.{key}' holds "
                                 rf"{re.escape(repr(value))}, expected"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("section,message", [
        (None, r"does not hold a JSON object"),
        ("activation", r"section 'activation' is not a JSON object"),
        ("dims", r"section 'dims' is not a JSON object"),
        ("arrays", r"section 'arrays' is not a JSON object"),
    ])
    def test_non_object_document_rejected(self, tmp_path, section, message):
        path = tmp_path / "model.json"
        save_checkpoint(str(path), init_params(2, 4, 1, seed=1),
                        ActivationKind.relu())
        doc = json.loads(path.read_text())
        if section is None:
            doc = [doc]
        else:
            doc[section] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))


def _mse(pred, target):
    from brownian_lstm.training import mse_loss
    loss, grad = mse_loss(pred[0], target)
    return loss, grad.reshape(1, -1)
