"""Single-layer LSTM with a dense head and exact backpropagation.

Cell equations, with act the configured activation (the same activation
is applied at both nonlinear sites, so the stochastic BrownianReLU can
replace tanh everywhere it appears):

    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)
    i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)
    o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)
    c~_t = act(W_c x_t + U_c h_{t-1} + b_c)
    C_t = f_t * C_{t-1} + i_t * c~_t
    h_t = o_t * act(C_t)

The head is pred = W_y h_T + b_y, optionally through a sigmoid for
binary classification.  sequence_forward records one StepTrace per
timestep unless called with record=False, which keeps only the running
state (forward-only scoring).  backward_bptt runs full backpropagation
through time on a recorded trace, differentiating the sampled function
exactly: stochastic activations are differentiated at the noise stored
in their forward caches, and dL/dalpha accumulates through
backward_alpha at both activation sites of every timestep.

Shapes follow the column convention: x_t is (d, B), h_t and C_t are
(n, B), predictions are (out, B).  B is the number of sequences pushed
through together and is 1 for single-sequence use.  LstmParams stores
the four gate blocks stacked as W (4n, d), U (4n, n) and b (4n, 1), rows
in GATE_ORDER = [f; i; o; c], so each timestep costs two matrix
products; alpha is a (1, 1) array, so PARAM_KEYS names every learnable
array.  A step keeps its gates in the same rows as one (4n, B) block,
StepTrace.gates: the pre-activation, with the sigmoid taken in place
over [f; i; o], and backward_bptt fills dL/dz in that layout.
Checkpoint files (format_version 1) keep one array per gate and matrix
(w_f, u_f, b_f, ..., w_y, b_y); save_checkpoint splits the row blocks
and load_checkpoint joins them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import (EPSILON, LEAKY_SLOPE, ActivationCache,
                          ActivationKind, backward_alpha, backward_input,
                          forward)
from .numerics import RngStream, write_text

# Row blocks of the stacked gate matrices: the three sigmoid gates,
# then the candidate.
GATE_ORDER = ("f", "i", "o", "c")
PARAM_KEYS = ("w", "u", "b", "w_y", "b_y", "alpha")
# Per-gate order of the init draws and of the checkpoint file's arrays.
_FILE_GATES = ("f", "i", "c", "o")
_INIT_STREAM = 101
CHECKPOINT_VERSION = 1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z)
    # below, with the exponent never positive.  e <= 1, so the larger of
    # e and the mask selects the numerator without a branch.  In place,
    # into z: at evaluate's width each temporary costs fresh pages.
    e = np.abs(z, out=np.empty(np.shape(z)))
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, z >= 0.0, out=z)
    e += 1.0
    z /= e
    return z


def _rows(gate: str, n: int) -> slice:
    """Row block of one gate in the stacked (4n, .) matrices."""
    k = GATE_ORDER.index(gate)
    return slice(k * n, (k + 1) * n)


@dataclass
class LstmParams:
    """All learnable state: stacked gate weights, head weights, and alpha.

    w (4n, d), u (4n, n) and b (4n, 1) hold the gates in GATE_ORDER row
    blocks; w_y (out, n) and b_y (out, 1) are the dense head; alpha_array
    (1, 1) holds alpha, which params.alpha reads as a float.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray
    w_y: np.ndarray
    b_y: np.ndarray
    alpha_array: np.ndarray

    @property
    def alpha(self) -> float:
        return float(self.alpha_array[0, 0])

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.u.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w_y.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        """Every parameter array, keyed in fixed PARAM_KEYS order."""
        return dict(zip(PARAM_KEYS, (self.w, self.u, self.b, self.w_y,
                                     self.b_y, self.alpha_array)))

    def copy(self) -> "LstmParams":
        return LstmParams(*(arr.copy() for arr in self.arrays().values()))


def init_params(input_dim: int, hidden_dim: int, output_dim: int,
                seed: int, alpha: float = 0.25) -> LstmParams:
    """Xavier-uniform weights, zero biases, forget bias 1.

    Weight matrices draw from U(-a, a) with a = sqrt(6 / (fan_in +
    fan_out)); the draw order is fixed (w then u per gate f, i, c, o,
    each into its row block, then the head) so a seed pins every entry.
    """
    if input_dim < 1 or hidden_dim < 1 or output_dim < 1:
        raise ValueError(
            f"dimensions must be positive, got ({input_dim}, {hidden_dim}, "
            f"{output_dim})"
        )
    stream = RngStream(seed, _INIT_STREAM)

    def xavier(rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return stream.uniform(-limit, limit, size=(rows, cols))

    d, n, out = input_dim, hidden_dim, output_dim
    w = np.empty((4 * n, d))
    u = np.empty((4 * n, n))
    b = np.zeros((4 * n, 1))
    for gate in _FILE_GATES:
        w[_rows(gate, n)] = xavier(n, d, d, n)
        u[_rows(gate, n)] = xavier(n, n, n, n)
    b[_rows("f", n)] = 1.0
    w_y = xavier(out, n, n, out)
    return LstmParams(w, u, b, w_y, np.zeros((out, 1)),
                      np.full((1, 1), float(alpha)))


@dataclass
class StepTrace:
    """Everything one timestep's backward pass needs.  gates (4n, B) holds
    [f; i; o], then the candidate pre-activation that cand_cache views."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray
    c_tilde: np.ndarray
    cand_cache: ActivationCache
    c: np.ndarray
    a: np.ndarray
    cell_cache: ActivationCache
    h: np.ndarray


@dataclass
class ForwardTrace:
    """Recorded forward pass over a whole sequence."""

    kind: ActivationKind
    head: str
    steps: list[StepTrace] = field(default_factory=list)
    prediction: np.ndarray | None = None

    def noise_plan(self) -> list[tuple[np.ndarray | None, np.ndarray | None]]:
        """Per-step (candidate, cell) noise, replayable via sequence_forward."""
        return [(s.cand_cache.zbar, s.cell_cache.zbar) for s in self.steps]


def _step(params: LstmParams, n: int, kind: ActivationKind,
          x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
          rng: RngStream | None, frozen: tuple | None) -> StepTrace:
    # Summed in place, in the order of w @ x + u @ h_prev + b.
    z = params.w @ x
    z += params.u @ h_prev
    z += params.b
    _sigmoid(z[:3 * n])
    f, i, o = z[:n], z[n:2 * n], z[2 * n:3 * n]
    zc_frozen, c_frozen = frozen if frozen is not None else (None, None)
    c_tilde, cand_cache = forward(kind, z[3 * n:], params.alpha, rng,
                                  frozen_zbar=zc_frozen)
    c = f * c_prev + i * c_tilde
    a, cell_cache = forward(kind, c, params.alpha, rng, frozen_zbar=c_frozen)
    h = o * a
    return StepTrace(x=x, h_prev=h_prev, c_prev=c_prev, gates=z,
                     c_tilde=c_tilde, cand_cache=cand_cache, c=c, a=a,
                     cell_cache=cell_cache, h=h)


def sequence_forward(params: LstmParams, inputs, kind: ActivationKind,
                     rng: RngStream | None = None, head: str = "linear",
                     noise: list | None = None, record: bool = True):
    """Run a full sequence from zero initial state through the head.

    Arguments:
        inputs  (T, d) for one sequence or (T, d, B) for a batch
        head    'linear' for regression, 'sigmoid' for classification
        noise   optional per-step noise plan from ForwardTrace.noise_plan,
                replayed instead of drawing (frozen-noise evaluation)
        record  keep every step in trace.steps for backward_bptt; False
                drops each step once the next one has its state, so a
                forward-only pass holds one step at a time

    Returns:
        (prediction, trace) with prediction of shape (out, B).  Without
        record, trace.steps is empty and backward_bptt rejects the trace;
        the arithmetic and the noise draws are the same either way.
    """
    if head not in ("linear", "sigmoid"):
        raise ValueError(f"unknown head '{head}'")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim == 2:
        inputs = inputs[:, :, np.newaxis]
    if inputs.ndim != 3:
        raise ValueError(
            f"inputs must be (T, d) or (T, d, B), got shape {inputs.shape}"
        )
    t_len, d, batch = inputs.shape
    if t_len < 1:
        raise ValueError("sequence length must be at least 1")
    if d != params.input_dim:
        raise ValueError(
            f"input feature dim {d} does not match params input_dim "
            f"{params.input_dim}"
        )
    if noise is not None and len(noise) != t_len:
        raise ValueError(
            f"noise plan has {len(noise)} steps, sequence has {t_len}"
        )

    n = params.hidden_dim
    h = np.zeros((n, batch))
    c = np.zeros((n, batch))
    trace = ForwardTrace(kind=kind, head=head)
    for t in range(t_len):
        frozen = noise[t] if noise is not None else None
        step = _step(params, n, kind, inputs[t], h, c, rng, frozen)
        if record:
            trace.steps.append(step)
        h, c = step.h, step.c
    logit = params.w_y @ h + params.b_y
    prediction = _sigmoid(logit) if head == "sigmoid" else logit
    trace.prediction = prediction
    return prediction, trace


def backward_bptt(params: LstmParams, trace: ForwardTrace,
                  d_pred) -> dict[str, np.ndarray | float]:
    """Exact gradients of the traced forward pass.

    Arguments:
        d_pred  dL/dprediction, shape (out, B), matching trace.prediction

    Returns:
        dict with one array per PARAM_KEYS name, alpha's (1, 1).  For a
        sigmoid head d_pred is taken with respect to the probability and
        chained through the sigmoid here.  Stochastic activations are
        differentiated at their cached noise, so these gradients match
        finite differences of the frozen-noise forward exactly.
    """
    if trace.prediction is None or not trace.steps:
        raise ValueError("trace does not contain a completed forward pass")
    d_pred = np.asarray(d_pred, dtype=np.float64)
    if d_pred.shape != trace.prediction.shape:
        raise ValueError(
            f"d_pred shape {d_pred.shape} does not match prediction shape "
            f"{trace.prediction.shape}"
        )
    kind = trace.kind

    if trace.head == "sigmoid":
        p = trace.prediction
        dlogit = d_pred * p * (1.0 - p)
    else:
        dlogit = d_pred
    h_last = trace.steps[-1].h
    dh = params.w_y.T @ dlogit
    dc = np.zeros_like(h_last)
    dw = np.zeros_like(params.w)
    du = np.zeros_like(params.u)
    db = np.zeros_like(params.b)
    dalpha = np.zeros((1, 1))

    n = params.hidden_dim
    for step in reversed(trace.steps):
        g = step.gates[:3 * n]
        dz = np.empty_like(step.gates)
        np.multiply(dh, step.a, out=dz[2 * n:3 * n])
        da = dh * g[2 * n:]
        dc = dc + backward_input(kind, step.cell_cache, da)
        if kind.has_alpha:
            dalpha += backward_alpha(kind, step.cell_cache, da)
        np.multiply(dc, step.c_prev, out=dz[:n])
        np.multiply(dc, step.c_tilde, out=dz[n:2 * n])
        dct = dc * g[n:2 * n]
        dz[3 * n:] = backward_input(kind, step.cand_cache, dct)
        if kind.has_alpha:
            dalpha += backward_alpha(kind, step.cand_cache, dct)
        dz[:3 * n] *= g
        dz[:3 * n] *= 1.0 - g
        dw += dz @ step.x.T
        du += dz @ step.h_prev.T
        db += dz.sum(axis=1, keepdims=True)
        dh = params.u.T @ dz
        dc *= g[:n]

    return {"w": dw, "u": du, "b": db, "w_y": dlogit @ h_last.T,
            "b_y": dlogit.sum(axis=1, keepdims=True), "alpha": dalpha}


def save_checkpoint(path: str, params: LstmParams,
                    kind: ActivationKind) -> None:
    """Write parameters and activation config to JSON.

    The stacked gate matrices are split into one array per gate.  Floats
    serialize via repr (shortest round-trip), so load followed by save
    reproduces the file and the arrays bit for bit.
    """
    n = params.hidden_dim
    arrays = {f"{name}_{gate}": getattr(params, name)[_rows(gate, n)].tolist()
              for gate in _FILE_GATES for name in ("w", "u", "b")}
    arrays.update(w_y=params.w_y.tolist(), b_y=params.b_y.tolist())
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "dims": {
            "input": params.input_dim,
            "hidden": n,
            "output": params.output_dim,
        },
        "activation": {
            "name": kind.name,
            "slope": LEAKY_SLOPE,
            "m": kind.m,
            "epsilon": EPSILON,
            "sampling": kind.sampling,
            "input_grad": "pathwise",
        },
        "alpha": params.alpha,
        "arrays": arrays,
    }
    write_text(path, json.dumps(doc, indent=1) + "\n")


def _section(doc: dict, key: str) -> dict:
    section = doc[key]
    if not isinstance(section, dict):
        raise ValueError(f"checkpoint section '{key}' is not a JSON object")
    return section


_NUMBER = (int, float)
# JSON type of each activation field, in file order.
_ACTIVATION_FIELDS = {"name": (str,), "slope": _NUMBER, "m": (int,),
                      "epsilon": _NUMBER, "sampling": (str,),
                      "input_grad": (str,)}
# Activation fields that every v1 file holds at these constant values.
_FIXED_FIELDS = {"slope": LEAKY_SLOPE, "epsilon": EPSILON,
                 "input_grad": "pathwise"}


def _typed(section: dict, key: str, types: tuple, label: str):
    """section[key] if it has one of types (a bool, NaN or inf is not)."""
    value = section[key]
    if (isinstance(value, bool) or not isinstance(value, types)
            or (isinstance(value, float) and not math.isfinite(value))):
        expected = " or ".join(t.__name__ for t in types)
        raise ValueError(
            f"checkpoint field '{label}' holds {value!r}, expected {expected}"
        )
    return value


def load_checkpoint(path: str) -> tuple[LstmParams, ActivationKind]:
    """Read a checkpoint written by save_checkpoint.

    Every field is checked for its JSON type and every array against the
    stored dims; a missing key, a section that is not a JSON object, a
    wrongly typed field, a wrong shape, a non-finite number or a fixed
    activation field (slope, epsilon, input_grad) holding any value but
    the one save_checkpoint writes raises ValueError naming the key.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} does not hold a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format_version {version!r}"
        )
    try:
        act = _section(doc, "activation")
        fields = {key: _typed(act, key, types, f"activation.{key}")
                  for key, types in _ACTIVATION_FIELDS.items()}
        for key, expected in _FIXED_FIELDS.items():
            value = fields.pop(key)
            if value != expected:
                raise ValueError(f"checkpoint field 'activation.{key}' "
                                 f"holds {value!r}, expected {expected!r}")
        kind = ActivationKind(**fields)
        dims = _section(doc, "dims")
        d, n, out = (_typed(dims, key, (int,), f"dims.{key}")
                     for key in ("input", "hidden", "output"))
        shapes = {f"{name}_{gate}": (n, cols) for gate in _FILE_GATES
                  for name, cols in (("w", d), ("u", n), ("b", 1))}
        shapes.update(w_y=(out, n), b_y=(out, 1))
        alpha = float(_typed(doc, "alpha", _NUMBER, "alpha"))
        stored = _section(doc, "arrays")
        arrays = {}
        for key, shape in shapes.items():
            try:
                arr = np.asarray(stored[key], dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(
                    f"checkpoint array '{key}' is not a numeric matrix"
                ) from None
            if arr.shape != shape:
                raise ValueError(
                    f"checkpoint array '{key}' has shape {arr.shape}, "
                    f"expected {shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint array '{key}' is not finite")
            arrays[key] = arr
    except KeyError as exc:
        raise ValueError(f"checkpoint is missing key {exc}") from None

    def join(name: str) -> np.ndarray:
        return np.concatenate([arrays[f"{name}_{gate}"]
                               for gate in GATE_ORDER])

    params = LstmParams(join("w"), join("u"), join("b"), arrays["w_y"],
                        arrays["b_y"], np.full((1, 1), alpha))
    return params, kind
