"""Properties checked over generated shapes and values (hypothesis).

The profile is derandomized with a fixed example count and no example
database, so every run tries the same cases in bounded time.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_lstm.activations import ActivationKind
from brownian_lstm.experiments import _format_cell, _mean_row
from brownian_lstm.lstm import (PARAM_KEYS, backward_bptt, init_params,
                                load_checkpoint, save_checkpoint,
                                sequence_forward)
from brownian_lstm.numerics import BLOCK_PAIRS, RngStream
from brownian_lstm.training import mse_loss

from helpers import numeric_gradients, rel_error

PROFILE = settings(derandomize=True, max_examples=25, deadline=None,
                   database=None)
DIM = st.integers(1, 6)
SMALL = st.integers(1, 3)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@PROFILE
@given(t=DIM, d=DIM, n=DIM, batch=DIM, seed=st.integers(0, 2**32 - 1))
def test_brownian_at_alpha_zero_is_relu_through_the_lstm(t, d, n, batch,
                                                         seed):
    params = init_params(d, n, 1, seed=seed, alpha=0.0)
    x = RngStream(seed, 1).normals((t, d, batch), std=3.0)
    relu, _ = sequence_forward(params, x, ActivationKind.relu())
    brownian, _ = sequence_forward(params, x, ActivationKind.brownian(m=7),
                                   rng=RngStream(seed, 2))
    assert brownian.tobytes() == relu.tobytes()


@PROFILE
@given(d=DIM, n=DIM, out=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(allow_nan=False, allow_infinity=False))
def test_checkpoint_round_trip_is_bitwise(d, n, out, seed, alpha):
    params = init_params(d, n, out, seed=seed, alpha=alpha)
    kind = ActivationKind.brownian(m=9)
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "a.json")
        second = os.path.join(tmp, "b.json")
        save_checkpoint(first, params, kind)
        loaded, loaded_kind = load_checkpoint(first)
        save_checkpoint(second, loaded, loaded_kind)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    assert loaded_kind == kind
    for key, value in params.arrays().items():
        assert loaded.arrays()[key].tobytes() == value.tobytes(), key


BLOCK = 2 * BLOCK_PAIRS


@PROFILE
@given(head=st.lists(st.integers(0, 300), min_size=2, max_size=3),
       tail=st.lists(st.integers(BLOCK // 2, BLOCK + 300), min_size=4,
                     max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_standard_normals_do_not_depend_on_chunking(head, tail, seed):
    # The first two draws compute exactly their pairs; the four or more
    # calls after them, each at least half a read-ahead block, cross at
    # least two block boundaries.
    sizes = head + tail
    whole = RngStream(seed, 3).standard_normals(sum(sizes))
    stream = RngStream(seed, 3)
    parts = [stream.standard_normals(size) for size in sizes]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@PROFILE
@given(t=DIM, d=DIM, n=DIM, batch=DIM, seed=st.integers(0, 2**32 - 1),
       alpha=FINITE)
def test_zero_noise_is_relu_at_any_alpha(t, d, n, batch, seed, alpha):
    # evaluate's eval_noise="mean" scores the ReLU network on this ground.
    params = init_params(d, n, 1, seed=seed, alpha=alpha)
    x = RngStream(seed, 1).normals((t, d, batch), std=3.0)
    relu, _ = sequence_forward(params, x, ActivationKind.relu())
    zeros = np.zeros((n, batch))
    brownian, _ = sequence_forward(params, x, ActivationKind.brownian(m=7),
                                   noise=[(zeros, zeros)] * t)
    assert brownian.tobytes() == relu.tobytes()


@pytest.mark.parametrize("kind,tolerance", [
    (ActivationKind.brownian(m=15), 1e-4), (ActivationKind.tanh(), 1e-6)],
    ids=["brownian", "tanh"])
@PROFILE
@given(t=SMALL, d=SMALL, n=SMALL, batch=SMALL, seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.05, 2.0), sign=st.sampled_from([1.0, -1.0]))
def test_gradients_match_finite_differences(kind, tolerance, t, d, n, batch,
                                            seed, alpha, sign):
    # A stochastic kind is differentiated at its frozen (replayed) noise.
    # alpha keeps off 0: there a negative candidate gives c~ = +0.0, so
    # from the zero state C_1 sits exactly on the kink at 0, where the
    # derivative is taken as 0 and a central difference reads neither side.
    alpha *= sign
    params = init_params(d, n, 1, seed=seed, alpha=alpha)
    x = RngStream(seed, 1).normals((t, d, batch))
    target = RngStream(seed, 2).normals((batch,))
    pred, trace = sequence_forward(params, x, kind, rng=RngStream(seed, 3))
    _, dpred = mse_loss(pred[0], target)
    grads = backward_bptt(params, trace, dpred.reshape(1, -1))
    fd = numeric_gradients(params, kind, x, target, "linear",
                           trace.noise_plan() if kind.stochastic else None)
    for key in PARAM_KEYS:
        assert rel_error(grads[key], fd[key]) < tolerance, key


_CELL = st.one_of(st.none(), st.text(max_size=3), st.integers(-5, 5),
                  st.floats(-1e6, 1e6), st.integers(-5, 5).map(np.int64),
                  st.floats(-1e6, 1e6).map(np.float64))


@PROFILE
@given(columns=st.lists(st.tuples(st.booleans(), st.lists(
    _CELL, min_size=4, max_size=4)), min_size=2, max_size=6),
       size=st.integers(2, 4))
def test_mean_row_passes_equal_columns_and_averages_numbers(columns, size):
    # Each column either repeats one cell in every row or varies.
    rows = [[cells[0] if same else cells[r] for same, cells in columns]
            for r in range(size)]
    mean = _mean_row(rows)
    assert len(mean) == len(rows[0]) and mean[1] == "mean"
    for col, out in enumerate(mean):
        values = [row[col] for row in rows]
        if col == 1:
            continue
        if all(v == values[0] for v in values):
            assert out is values[0]
        elif all(isinstance(v, (int, float, np.integer, np.floating))
                 for v in values):
            assert out == float(np.mean([float(v) for v in values]))
            assert type(out) is float
        else:
            assert out is values[0]
        assert isinstance(_format_cell(out), str)
