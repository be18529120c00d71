"""Shared test utilities: finite differences, error measures, and the
environment of a child Python process."""

from __future__ import annotations

import os
import threading

import numpy as np

import brownian_lstm
from brownian_lstm.lstm import sequence_forward
from brownian_lstm.training import bce_loss, mse_loss


def child_env() -> dict:
    """os.environ with the directory holding the package under test
    (``src`` in a checkout) first on PYTHONPATH, so that neither a
    relative PYTHONPATH (resolved against the child's cwd) nor an
    installed copy can stand in for it."""
    parent = os.path.dirname(os.path.dirname(
        os.path.abspath(brownian_lstm.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (parent, inherited) if p))


class ReadAheadBits:
    """Stands in for an RngStream's bit generator; calls from its
    read-ahead thread first wait for `release` (an Event, at most 10 s)
    and then raise `fail` if one is given."""

    def __init__(self, stream, release=None, fail=None):
        self._real, self._release, self._fail = stream._bits, release, fail
        stream._bits = self

    def __getattr__(self, name):
        return getattr(self._real, name)

    def random(self, *args, **kwargs):
        if threading.current_thread().name == "RngStream-read-ahead":
            if self._release is not None:
                self._release.wait(10)
            if self._fail is not None:
                raise self._fail
        return self._real.random(*args, **kwargs)


def rel_error(a, b, floor: float = 1e-8) -> float:
    """Norm-based relative error between two gradients."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    num = float(np.linalg.norm((a - b).ravel()))
    den = max(float(np.linalg.norm(a.ravel())),
              float(np.linalg.norm(b.ravel())), floor)
    return num / den


def loss_at(params, kind, inputs, targets, head, noise):
    """Loss of a frozen-noise forward pass (the function FD perturbs)."""
    pred, _ = sequence_forward(params, inputs, kind, head=head, noise=noise)
    loss_fn = bce_loss if head == "sigmoid" else mse_loss
    loss, _ = loss_fn(pred[0], targets)
    return loss


def numeric_gradients(params, kind, inputs, targets, head, noise,
                      h: float = 1e-5) -> dict:
    """Central-difference gradients of loss_at for every parameter."""
    grads: dict[str, np.ndarray] = {}
    for key, arr in params.arrays().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        g_flat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_at(params, kind, inputs, targets, head, noise)
            flat[i] = orig - h
            down = loss_at(params, kind, inputs, targets, head, noise)
            flat[i] = orig
            g_flat[i] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads
