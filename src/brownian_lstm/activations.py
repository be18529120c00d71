"""Activation family: deterministic baselines plus stochastic BrownianReLU.

BrownianReLU passes positive inputs through unchanged.  For x <= 0 it
returns -alpha * b, where b is the mean of M Brownian-motion samples
taken at time |x|:

    b = (1/M) sum_k B_k,    B_k ~ N(0, |x|)

Writing B_k = sqrt(|x|) * z_k with z_k ~ N(0, 1) reparameterizes b as
sqrt(|x|) * zbar with zbar ~ N(0, 1/M).  The forward pass stores zbar in
its cache, so both backward passes differentiate the function that was
actually sampled (noise held fixed):

    d y / d x      = alpha * zbar / (2 sqrt(|x|))    for x < 0
    d y / d alpha  = -b = -sqrt(|x|) * zbar          for x <= 0

At alpha = 0 the negative branch is identically zero and BrownianReLU
reduces to ReLU bit for bit.  Setting M -> inf drives the negative
branch's variance (alpha**2 |x| / M) to zero, so large M also behaves
like ReLU, but stochastically.

Sampling modes: 'collapsed' draws zbar ~ N(0, 1/M) directly, one draw
per negative element; 'explicit' averages M unit normals per element.
They are identical in law; explicit costs M times more draws.

The remaining kinds are standard: relu, leaky_relu (slope LEAKY_SLOPE),
prelu (learnable slope alpha), tanh, and gelu = x * Phi(x) with Phi the
standard normal CDF.  GELU is the only kind that needs scipy (for
erf); scipy.special is imported when a gelu kind is built, so a process
that builds none starts without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream

KIND_NAMES = ("relu", "leaky_relu", "prelu", "tanh", "gelu", "brownian")
_DISPLAY = {
    "relu": "ReLU",
    "leaky_relu": "LeakyReLU",
    "prelu": "PReLU",
    "tanh": "Tanh",
    "gelu": "GELU",
    "brownian": "BrownianReLU",
}
# LeakyReLU's negative-branch slope.
LEAKY_SLOPE = 0.01
# Floor on |x| inside the sqrt of BrownianReLU's pathwise derivative.
EPSILON = 1e-6
_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class NonFiniteInput(ValueError):
    """forward() was given NaN or an infinity."""


@functools.cache
def _erf():
    """scipy.special.erf, imported on first use."""
    from scipy.special import erf
    return erf


def _phi(x: np.ndarray) -> np.ndarray:
    # Standard normal CDF.
    return 0.5 * (1.0 + _erf()(x * _SQRT1_2))


def _pdf(x: np.ndarray) -> np.ndarray:
    # Standard normal density.
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class ActivationKind:
    """Immutable description of an activation function.

    name        one of KIND_NAMES
    m           Monte Carlo sample count M >= 1 (brownian only)
    sampling    'collapsed' or 'explicit' (brownian)
    """

    name: str
    m: int = 1000
    sampling: str = "collapsed"

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown activation '{self.name}'; expected "
                             f"one of {KIND_NAMES}")
        if self.m < 1:
            raise ValueError(f"sample count M must be >= 1, got {self.m}")
        if self.sampling not in ("collapsed", "explicit"):
            raise ValueError(f"unknown sampling mode '{self.sampling}'")
        if self.name == "gelu":
            # Load erf now: harness cells are built before the worker
            # pool forks, so workers inherit it instead of importing it.
            _erf()

    @property
    def stochastic(self) -> bool:
        return self.name == "brownian"

    @property
    def has_alpha(self) -> bool:
        """True for kinds with a learnable scalar parameter."""
        return self.name in ("prelu", "brownian")

    @property
    def display_name(self) -> str:
        return _DISPLAY[self.name]

    @classmethod
    def relu(cls) -> "ActivationKind":
        return cls("relu")

    @classmethod
    def leaky_relu(cls) -> "ActivationKind":
        return cls("leaky_relu")

    @classmethod
    def prelu(cls) -> "ActivationKind":
        return cls("prelu")

    @classmethod
    def tanh(cls) -> "ActivationKind":
        return cls("tanh")

    @classmethod
    def gelu(cls) -> "ActivationKind":
        return cls("gelu")

    @classmethod
    def brownian(cls, m: int = 1000,
                 sampling: str = "collapsed") -> "ActivationKind":
        return cls("brownian", m=m, sampling=sampling)


@dataclass
class ActivationCache:
    """Forward-pass state needed for exact backward passes.

    zbar is the per-element mean of the unit normals drawn on the
    negative branch (None for deterministic kinds); alpha is the value
    the forward pass was evaluated at.
    """

    kind: ActivationKind
    inputs: np.ndarray
    zbar: np.ndarray | None
    alpha: float


def _draw_zbar(kind: ActivationKind, x: np.ndarray, rng: RngStream,
               frozen_zbar: np.ndarray | None) -> np.ndarray:
    neg = x <= 0.0
    if frozen_zbar is not None:
        frozen_zbar = np.asarray(frozen_zbar, dtype=np.float64)
        if frozen_zbar.shape != x.shape:
            raise ValueError(
                f"frozen noise shape {frozen_zbar.shape} does not match "
                f"input shape {x.shape}"
            )
        return np.where(neg, frozen_zbar, 0.0)
    if rng is None:
        raise ValueError("brownian activation requires an RngStream")
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


def forward(kind: ActivationKind, x, alpha: float = 0.0,
            rng: RngStream | None = None,
            frozen_zbar: np.ndarray | None = None):
    """Apply the activation elementwise.

    Arguments:
        kind         which activation to apply
        x            input array (any shape, finite)
        alpha        learnable scalar (prelu slope / brownian scale)
        rng          noise source, required when sampling brownian
        frozen_zbar  reuse this noise instead of drawing (brownian only)

    Returns:
        (y, cache) where y has the shape of x and cache supports
        backward_input / backward_alpha.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteInput("activation input contains non-finite entries")
    alpha = float(alpha)

    zbar = None
    if kind.name == "relu":
        y = np.where(x > 0.0, x, 0.0)
    elif kind.name == "leaky_relu":
        y = np.where(x > 0.0, x, LEAKY_SLOPE * x)
    elif kind.name == "prelu":
        y = np.where(x > 0.0, x, alpha * x)
    elif kind.name == "tanh":
        y = np.tanh(x)
    elif kind.name == "gelu":
        y = x * _phi(x)
    else:
        zbar = _draw_zbar(kind, x, rng, frozen_zbar)
        b = np.sqrt(np.abs(x)) * zbar
        # + 0.0 normalizes -0.0 so alpha = 0 reproduces ReLU bitwise.
        y = np.where(x > 0.0, x, -(alpha * b) + 0.0)
    return y, ActivationCache(kind=kind, inputs=x, zbar=zbar, alpha=alpha)


def _check_cache(kind: ActivationKind, cache: ActivationCache,
                 upstream: np.ndarray) -> np.ndarray:
    if cache.kind != kind:
        raise ValueError(
            f"cache was built for '{cache.kind.name}', not '{kind.name}'"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.inputs.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match cached input "
            f"shape {cache.inputs.shape}"
        )
    return upstream


def backward_input(kind: ActivationKind, cache: ActivationCache,
                   upstream) -> np.ndarray:
    """dL/dx given dL/dy, differentiated at the cached noise.

    For brownian the negative-branch derivative is the pathwise slope
    alpha * zbar / (2 sqrt(max(|x|, EPSILON))); the derivative at
    exactly x = 0 is taken as 0.
    """
    upstream = _check_cache(kind, cache, upstream)
    x = cache.inputs
    if kind.name == "relu":
        g = np.where(x > 0.0, 1.0, 0.0)
    elif kind.name == "leaky_relu":
        g = np.where(x > 0.0, 1.0, LEAKY_SLOPE)
    elif kind.name == "prelu":
        g = np.where(x > 0.0, 1.0, cache.alpha)
    elif kind.name == "tanh":
        t = np.tanh(x)
        g = 1.0 - t * t
    elif kind.name == "gelu":
        g = _phi(x) + x * _pdf(x)
    else:
        denom = 2.0 * np.sqrt(np.maximum(np.abs(x), EPSILON))
        g = np.where(x > 0.0, 1.0, cache.alpha * cache.zbar / denom)
        g = np.where(x == 0.0, 0.0, g)
    return upstream * g


def backward_alpha(kind: ActivationKind, cache: ActivationCache,
                   upstream) -> float:
    """dL/dalpha given dL/dy, summed over all elements.

    brownian: d y / d alpha = -b on x <= 0, so the result is
    -sum(upstream * b) over the negative branch.  prelu: x on x <= 0.
    Other kinds have no alpha and raise ValueError.
    """
    if not kind.has_alpha:
        raise ValueError(f"activation '{kind.name}' has no alpha parameter")
    upstream = _check_cache(kind, cache, upstream)
    x = cache.inputs
    dy = x if kind.name == "prelu" else -np.sqrt(np.abs(x)) * cache.zbar
    # The mask stays: a cache need not hold zbar = 0 where x > 0.
    return float(np.sum(np.where(x <= 0.0, upstream * dy, 0.0)))
