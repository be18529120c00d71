"""Properties checked over generated shapes and values (hypothesis).

The profile is derandomized with a fixed example count and no example
database, so every run tries the same cases in bounded time.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from brownian_lstm.activations import (EPSILON, LEAKY_SLOPE, ActivationCache,
                                       ActivationKind, backward_alpha,
                                       backward_input, forward)
from brownian_lstm.cli import cli_main
from brownian_lstm.experiments import _format_cell, _mean_row
from brownian_lstm.lstm import (PARAM_KEYS, _sigmoid, backward_bptt,
                                init_params, load_checkpoint,
                                save_checkpoint, sequence_forward)
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
    relu, _ = sequence_forward(params, x, ActivationKind("relu"))
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
    relu, _ = sequence_forward(params, x, ActivationKind("relu"))
    zeros = np.zeros((n, batch))
    brownian, _ = sequence_forward(params, x, ActivationKind.brownian(m=7),
                                   noise=[(zeros, zeros)] * t)
    assert brownian.tobytes() == relu.tobytes()


@pytest.mark.parametrize("kind,tolerance", [
    (ActivationKind.brownian(m=15), 1e-4), (ActivationKind("tanh"), 1e-6)],
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


# The np.where and boolean-mask kernels that the branch-free selects in
# lstm._sigmoid and activations replaced, kept verbatim as the reference.
def _where_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def _mask_draw_zbar(kind, x, rng, frozen_zbar):
    neg = x <= 0.0
    if frozen_zbar is not None:
        return np.where(neg, frozen_zbar, 0.0)
    zbar = np.zeros_like(x)
    count = int(neg.sum())
    if count:
        if kind.sampling == "collapsed":
            z = rng.standard_normals(count) / math.sqrt(kind.m)
        else:
            draws = rng.standard_normals(count * kind.m)
            z = draws.reshape(count, kind.m).mean(axis=1)
        zbar[neg] = z
    return zbar


def _where_forward(kind, x, alpha, rng, frozen_zbar):
    """(y, zbar) of the three rewritten kinds."""
    if kind.name == "relu":
        return np.where(x > 0.0, x, 0.0), None
    if kind.name == "leaky_relu":
        return np.where(x > 0.0, x, LEAKY_SLOPE * x), None
    zbar = _mask_draw_zbar(kind, x, rng, frozen_zbar)
    b = np.sqrt(np.abs(x)) * zbar
    return np.where(x > 0.0, x, -(alpha * b) + 0.0), zbar


def _where_backward_input(kind, cache, upstream):
    x = cache.inputs
    if kind.name == "relu":
        g = np.where(x > 0.0, 1.0, 0.0)
    elif kind.name == "leaky_relu":
        g = np.where(x > 0.0, 1.0, LEAKY_SLOPE)
    else:
        denom = 2.0 * np.sqrt(np.maximum(np.abs(x), EPSILON))
        g = np.where(x > 0.0, 1.0, cache.alpha * cache.zbar / denom)
        g = np.where(x == 0.0, 0.0, g)
    return upstream * g


def _where_backward_alpha(kind, cache, upstream):
    x = cache.inputs
    dy = x if kind.name == "prelu" else -np.sqrt(np.abs(x)) * cache.zbar
    return float(np.sum(np.where(x <= 0.0, upstream * dy, 0.0)))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e-7, -1e-7, 1e300, -1e300]
EDGY = st.one_of(st.sampled_from(EDGES), FINITE)
ALPHA = st.one_of(st.sampled_from([0.0, -0.0, -0.7, 1.5]), FINITE)


@st.composite
def _triples(draw):
    """x, upstream and noise arrays of one generated shape, 0-d included."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=5))
    return tuple(draw(hnp.arrays(np.float64, shape, elements=EDGY))
                 for _ in range(3))


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROFILE
@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                 min_side=0, max_side=5),
                    elements=st.one_of(EDGY, st.sampled_from(
                        [np.inf, -np.inf, np.nan, 800.0, -800.0]))))
def test_sigmoid_selects_the_where_kernels_bits(z):
    assert _bits(_sigmoid(z.copy())) == _bits(_where_sigmoid(z))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["relu", "leaky_relu", "prelu", "brownian",
                                  "explicit", "frozen"])
@PROFILE
@given(arrays=_triples(), alpha=ALPHA, seed=st.integers(0, 2**32 - 1))
# Where the mask product np.sum(upstream * dy * (x <= 0)) would sum to
# -0.0, or to NaN, the reference sums to +0.0.
@example(arrays=(np.array([1.0, 2.0]), np.ones(2), np.full(2, 0.5)),
         alpha=0.25, seed=0)
@example(arrays=(np.array([1e300, -1.0]), np.array([1e300, 1.0]),
                 np.ones(2)), alpha=0.25, seed=0)
# The slope at exactly x = 0 is 0, whatever the noise there.
@example(arrays=(np.array([0.0, -0.0, -1.0, 3.0]), np.ones(4),
                 np.full(4, 0.5)), alpha=0.25, seed=0)
def test_activation_kernels_select_the_where_kernels_bits(name, arrays,
                                                          alpha, seed):
    x, upstream, noise = arrays
    if name in ("relu", "leaky_relu", "prelu"):
        kind = ActivationKind(name)
    else:
        kind = ActivationKind.brownian(
            m=3, sampling="explicit" if name == "explicit" else "collapsed")
    frozen = noise if name == "frozen" else None
    new_rng, old_rng = RngStream(seed, 4), RngStream(seed, 4)
    y, cache = forward(kind, x, alpha, new_rng, frozen_zbar=frozen)
    caches = [cache]
    if kind.name != "prelu":
        want_y, want_zbar = _where_forward(kind, x, alpha, old_rng, frozen)
        assert _bits(y) == _bits(want_y)
        if kind.stochastic:
            assert _bits(cache.zbar) == _bits(want_zbar)
            # A cache need not hold zbar = 0 where x > 0.
            caches.append(ActivationCache(kind, x, noise, alpha))
        assert (new_rng.standard_normals(3).tobytes()
                == old_rng.standard_normals(3).tobytes())
        for each in caches:
            assert (_bits(backward_input(kind, each, upstream))
                    == _bits(_where_backward_input(kind, each, upstream)))
    if kind.has_alpha:
        for each in caches:
            assert (_bits(backward_alpha(kind, each, upstream))
                    == _bits(_where_backward_alpha(kind, each, upstream)))


# A valid value for each fuzzed flag of a tiny compare/train run.  M and
# the series stay small: explicit sampling draws count * M normals.
_CLI_VALID = {"epochs": "1", "lr": "0.01", "batch": "8", "optimizer": "sgd",
              "eval_noise": "mean", "activations": "brownian", "m": "3",
              "alpha": "0.5", "lookback": "4", "hidden": "2", "split": "0.7",
              "sampling": "explicit", "norm_scope": "train", "seed": "3",
              "synth": "sine:2,90"}
# Index 0 is the flag's valid value; in a config file "1,2" is a list.
_CLI_VALUES = [None, "0", "-1", "nan", "inf", "", "abc", "1,2"]


def _config_value(text):
    if text == "1,2":
        return [1, 2]
    try:
        return json.loads(text)
    except ValueError:
        return float(text) if text in ("nan", "inf") else text


@PROFILE
@given(command=st.sampled_from(["compare", "train"]),
       picks=st.dictionaries(st.sampled_from(sorted(_CLI_VALID)),
                             st.integers(0, len(_CLI_VALUES) - 1),
                             max_size=3),
       in_file=st.booleans())
def test_cli_exits_0_or_2_with_one_error_line(command, picks, in_file):
    values = {flag: _CLI_VALUES[k] or _CLI_VALID[flag]
              for flag, k in picks.items()}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--synth", "sine:1,120", "--lookback", "5",
                "--hidden", "2", "--epochs", "1", "--m", "3",
                "--activations", "brownian", "--out", tmp]
        if in_file:
            # A config file's values yield to flags: drop the defaults.
            for flag in values:
                index = argv.index("--" + flag) if "--" + flag in argv else -1
                if index >= 0:
                    del argv[index:index + 2]
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({flag.replace("_", "-"): _config_value(text)
                           for flag, text in values.items()}, fh)
            argv += ["--config", path]
        else:
            argv += [f"--{flag.replace('_', '-')}={text}"
                     for flag, text in values.items()]
        with (contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            code = cli_main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2), (argv, lines)
    errors = [line for line in lines if "error:" in line]
    assert len(errors) == (1 if code == 2 else 0), (argv, lines)
