"""Activation forward/backward contracts, including the stochastic kind."""

import numpy as np
import pytest
from scipy.special import erf

from brownian_lstm.activations import (EPSILON, ActivationCache,
                                       ActivationKind, backward_alpha,
                                       backward_input, forward)
from brownian_lstm.numerics import RngStream

from helpers import rel_error

ALL_KINDS = [ActivationKind.relu(), ActivationKind.leaky_relu(),
             ActivationKind.prelu(), ActivationKind.tanh(),
             ActivationKind.gelu(), ActivationKind.brownian(m=50)]


def _gelu_ref(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


class TestDeterministicForward:
    def test_relu_clips_negatives(self):
        y, _ = forward(ActivationKind.relu(), np.array([-1.5, 0.0, 2.0]))
        np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])

    def test_leaky_relu_slope(self):
        y, _ = forward(ActivationKind.leaky_relu(), np.array([-2.0, 3.0]))
        np.testing.assert_allclose(y, [-0.02, 3.0], rtol=0, atol=0)

    def test_prelu_uses_alpha(self):
        y, _ = forward(ActivationKind.prelu(), np.array([-2.0, 3.0]),
                       alpha=0.25)
        np.testing.assert_array_equal(y, [-0.5, 3.0])

    def test_tanh_and_gelu_reference_values(self):
        x = np.linspace(-4.0, 4.0, 33)
        y_tanh, _ = forward(ActivationKind.tanh(), x)
        np.testing.assert_array_equal(y_tanh, np.tanh(x))
        y_gelu, _ = forward(ActivationKind.gelu(), x)
        np.testing.assert_allclose(y_gelu, _gelu_ref(x), rtol=1e-12,
                                   atol=1e-15)
        assert forward(ActivationKind.gelu(), np.array([0.0]))[0][0] == 0.0

    def test_non_finite_input_rejected(self):
        for kind in ALL_KINDS:
            with pytest.raises(ValueError, match="non-finite"):
                forward(kind, np.array([np.inf]), rng=RngStream(0))


class TestBrownianForward:
    def test_positive_inputs_pass_through(self):
        x = np.array([0.5, 1.0, 7.25])
        y, cache = forward(ActivationKind.brownian(m=10), x, alpha=0.9,
                           rng=RngStream(3))
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(cache.zbar, np.zeros(3))

    def test_alpha_zero_is_relu_bitwise(self):
        x = RngStream(11).uniform(-10.0, 10.0, size=1000)
        relu_y, _ = forward(ActivationKind.relu(), x)
        for m in (1, 500, 1500):
            y, _ = forward(ActivationKind.brownian(m=m), x, alpha=0.0,
                           rng=RngStream(4))
            assert y.tobytes() == relu_y.tobytes()

    def test_requires_rng_when_sampling(self):
        with pytest.raises(ValueError, match="RngStream"):
            forward(ActivationKind.brownian(), np.array([-1.0]), alpha=0.5)

    def test_mean_mode_zeroes_the_negative_branch(self):
        # At the noise mean zbar = 0, which evaluate's eval_noise="mean"
        # relies on, the branch is +0.0, ReLU's output, at either sign.
        x = np.array([-4.0, -1.0, 0.0, 2.0])
        relu_y, _ = forward(ActivationKind.relu(), x)
        for alpha in (0.7, -0.7):
            y, cache = forward(ActivationKind.brownian(), x, alpha=alpha,
                               frozen_zbar=np.zeros(4))
            np.testing.assert_array_equal(y, [0.0, 0.0, 0.0, 2.0])
            assert y.tobytes() == relu_y.tobytes()
            np.testing.assert_array_equal(cache.zbar, np.zeros(4))

    def test_frozen_noise_reproduces_forward(self):
        x = RngStream(5).uniform(-3.0, 3.0, size=(4, 6))
        kind = ActivationKind.brownian(m=25)
        y1, cache = forward(kind, x, alpha=0.8, rng=RngStream(6))
        y2, _ = forward(kind, x, alpha=0.8, frozen_zbar=cache.zbar)
        assert y1.tobytes() == y2.tobytes()
        # Known noise: f(-4) = -0.8 * sqrt(4) * 0.5 and f(0) = 0.
        y3, _ = forward(kind, np.array([-4.0, 0.0]), alpha=0.8,
                        frozen_zbar=np.array([0.5, 0.3]))
        np.testing.assert_array_equal(y3, [-0.8, 0.0])

    def test_negative_branch_law(self):
        # f(x) = -alpha sqrt(|x|) zbar with zbar ~ N(0, 1/M): mean 0,
        # variance alpha^2 |x| / M.
        kind = ActivationKind.brownian(m=100)
        x = np.full(200_000, -2.0)
        y, _ = forward(kind, x, alpha=0.5, rng=RngStream(12))
        target_var = 0.5**2 * 2.0 / 100
        assert abs(y.mean()) < 3.0 * np.sqrt(target_var / x.size)
        assert abs(y.var(ddof=1) / target_var - 1.0) < 0.05

    def test_variance_scales_inversely_with_m(self):
        x = np.full(50_000, -1.0)
        variances = {}
        for i, m in enumerate((1, 10, 100)):
            y, _ = forward(ActivationKind.brownian(m=m), x, alpha=1.0,
                           rng=RngStream(20 + i))
            variances[m] = y.var(ddof=1)
        assert abs(variances[1] / variances[10] / 10.0 - 1.0) < 0.1
        assert abs(variances[10] / variances[100] / 10.0 - 1.0) < 0.1

    def test_sampling_modes_agree_in_law(self):
        x = np.full(100_000, -2.0)
        collapsed, _ = forward(ActivationKind.brownian(m=8), x, alpha=1.0,
                               rng=RngStream(30))
        explicit, _ = forward(
            ActivationKind.brownian(m=8, sampling="explicit"), x, alpha=1.0,
            rng=RngStream(31))
        scale = np.sqrt(2.0 / 8)
        assert abs(collapsed.mean() - explicit.mean()) < 0.02 * scale
        assert abs(collapsed.std() / explicit.std() - 1.0) < 0.02

    def test_determinism_per_stream(self):
        x = np.linspace(-5.0, 1.0, 50)
        kind = ActivationKind.brownian(m=40)
        y1, _ = forward(kind, x, alpha=0.3, rng=RngStream(77, 2))
        y2, _ = forward(kind, x, alpha=0.3, rng=RngStream(77, 2))
        assert y1.tobytes() == y2.tobytes()


class TestBackwardInput:
    def _finite_difference(self, kind, x, alpha, zbar, h=1e-6):
        def f(xv):
            y, _ = forward(kind, xv, alpha, frozen_zbar=zbar)
            return y

        return (f(x + h) - f(x - h)) / (2.0 * h)

    def test_deterministic_kinds_match_finite_differences(self):
        # Sample away from the kinks at 0.
        stream = RngStream(40)
        for kind in ALL_KINDS[:5]:
            for trial in range(10):
                x = stream.uniform(0.2, 3.0, size=12)
                x[::2] *= -1.0
                y, cache = forward(kind, x, alpha=0.25)
                upstream = stream.normals((12,))
                grad = backward_input(kind, cache, upstream)
                fd = upstream * self._finite_difference(kind, x, 0.25, None)
                assert rel_error(grad, fd) < 1e-7

    def test_brownian_pathwise_matches_frozen_finite_differences(self):
        stream = RngStream(41)
        kind = ActivationKind.brownian(m=30)
        for trial in range(10):
            x = stream.uniform(0.2, 3.0, size=10)
            x[::2] *= -1.0
            y, cache = forward(kind, x, alpha=0.7, rng=stream)
            upstream = stream.normals((10,))
            grad = backward_input(kind, cache, upstream)
            fd = upstream * self._finite_difference(kind, x, 0.7, cache.zbar)
            assert rel_error(grad, fd) < 1e-5

    def test_brownian_gradient_zero_at_origin(self):
        kind = ActivationKind.brownian(m=5)
        y, cache = forward(kind, np.array([0.0, -1.0]), alpha=0.5,
                           rng=RngStream(2))
        grad = backward_input(kind, cache, np.ones(2))
        assert grad[0] == 0.0

    def test_epsilon_floors_the_denominator(self):
        kind = ActivationKind.brownian(m=5)
        x = np.array([-1e-9])
        y, cache = forward(kind, x, alpha=1.0, rng=RngStream(3))
        grad = backward_input(kind, cache, np.ones(1))
        expected = cache.zbar[0] / (2.0 * np.sqrt(EPSILON))
        assert grad[0] == pytest.approx(expected, rel=1e-12)

    def test_cache_kind_mismatch_rejected(self):
        y, cache = forward(ActivationKind.relu(), np.array([1.0]))
        with pytest.raises(ValueError, match="cache was built"):
            backward_input(ActivationKind.tanh(), cache, np.ones(1))

    def test_upstream_shape_mismatch_rejected(self):
        y, cache = forward(ActivationKind.relu(), np.ones((2, 2)))
        with pytest.raises(ValueError, match="upstream shape"):
            backward_input(ActivationKind.relu(), cache, np.ones(3))


class TestBackwardAlpha:
    def test_brownian_matches_minus_delta_b(self):
        # x = -4, zbar = 0.35: b = 2 * 0.35 = 0.7; delta = 2 gives -1.4.
        kind = ActivationKind.brownian(m=1)
        x = np.array([-4.0])
        y, cache = forward(kind, x, alpha=0.5, frozen_zbar=np.array([0.35]))
        assert backward_alpha(kind, cache, np.array([2.0])) == -1.4

    def test_positive_inputs_contribute_nothing(self):
        kind = ActivationKind.brownian(m=3)
        y, cache = forward(kind, np.array([1.0, 2.0, 3.0]), alpha=0.5,
                           rng=RngStream(1))
        assert backward_alpha(kind, cache, np.ones(3)) == 0.0

    def test_sum_over_negative_elements(self):
        kind = ActivationKind.brownian(m=1)
        x = np.array([-1.0, -4.0, 5.0])
        zbar = np.array([0.5, 0.25, 99.0])
        y, cache = forward(kind, x, alpha=1.0, frozen_zbar=zbar)
        upstream = np.array([2.0, 1.0, 7.0])
        # -(2 * 1 * 0.5) - (1 * 2 * 0.25) = -1.5
        assert backward_alpha(kind, cache, upstream) == -1.5

    def test_prelu_alpha_gradient(self):
        kind = ActivationKind.prelu()
        y, cache = forward(kind, np.array([-2.0, 3.0]), alpha=0.1)
        assert backward_alpha(kind, cache, np.array([1.0, 5.0])) == -2.0

    def test_kinds_without_alpha_reject(self):
        y, cache = forward(ActivationKind.relu(), np.array([1.0]))
        with pytest.raises(ValueError, match="no alpha"):
            backward_alpha(ActivationKind.relu(), cache, np.ones(1))


class TestKindValidation:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown activation"):
            ActivationKind("swish")

    def test_bad_m(self):
        with pytest.raises(ValueError, match="M"):
            ActivationKind.brownian(m=0)

    def test_bad_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            ActivationKind.brownian(sampling="antithetic")

    def test_display_names(self):
        names = [k.display_name for k in ALL_KINDS]
        assert names == ["ReLU", "LeakyReLU", "PReLU", "Tanh", "GELU",
                         "BrownianReLU"]
