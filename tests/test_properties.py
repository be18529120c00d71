"""Properties checked over generated shapes and values (hypothesis).

The profile is derandomized with a fixed example count and no example
database, so every run tries the same cases in bounded time.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_lstm.activations import ActivationKind
from brownian_lstm.lstm import (init_params, load_checkpoint,
                                save_checkpoint, sequence_forward)
from brownian_lstm.numerics import RngStream

PROFILE = settings(derandomize=True, max_examples=25, deadline=None,
                   database=None)
DIM = st.integers(1, 6)


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


@PROFILE
@given(total=st.integers(0, 300),
       cuts=st.lists(st.integers(0, 300), max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_standard_normals_do_not_depend_on_chunking(total, cuts, seed):
    whole = RngStream(seed, 3).standard_normals(total)
    bounds = [0] + sorted(min(c, total) for c in cuts) + [total]
    stream = RngStream(seed, 3)
    parts = [stream.standard_normals(hi - lo)
             for lo, hi in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
