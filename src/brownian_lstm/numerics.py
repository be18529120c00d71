"""Matrix conventions, deterministic random streams, and the file writer.

Every tensor in this library is a 2-D, C-order, float64 numpy array;
column vectors have shape (n, 1).

All randomness flows through RngStream, a counter-based (Philox) bit
stream keyed by (seed, stream_id).  Gaussian variates come from the
Box-Muller transform applied to the stream's uniforms, with the spare
half of each pair cached, so the mapping from draw index to value does
not depend on how draws are chunked into calls.  Replaying a stream
from the same key reproduces the identical sequence bit for bit.

Every output file (reports, histories, checkpoints, figures) is written
through write_text, so a failed write never leaves a half-written file.
"""

from __future__ import annotations

import math
import os

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi


def _splitmix64(z: int) -> int:
    # SplitMix64 finalizer; decorrelates nearby stream ids.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Deterministic uniform/Gaussian stream keyed by (seed, stream_id).

    The 128-bit Philox key is stream_id << 64 | seed, so streams with
    distinct ids are statistically independent and a stream rebuilt from
    the same key replays the identical draw sequence.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = (self.stream_id << 64) | self.seed
        self._bits = np.random.Generator(np.random.Philox(key=key))
        self._spare: float | None = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, index: int) -> "RngStream":
        """Independent child stream, deterministic in (stream_id, index)."""
        child = _splitmix64(self.stream_id ^ _splitmix64(int(index) & _MASK64))
        return RngStream(self.seed, child)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform draw(s) on [low, high)."""
        return low + (high - low) * self._bits.random(size)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n)."""
        return self._bits.permutation(int(n))

    def standard_normals(self, n: int) -> np.ndarray:
        """n independent N(0, 1) draws via Box-Muller.

        Uses u1 on (0, 1] so the log stays finite; the sine half of an
        odd trailing pair is kept as a spare for the next call.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"draw count must be non-negative, got {n}")
        out = np.empty(n)
        have = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            have = 1
        need = n - have
        if need > 0:
            pairs = (need + 1) // 2
            # Each pair consumes two consecutive uniforms, so the draw
            # sequence is invariant to how calls are chunked.
            u = self._bits.random(2 * pairs)
            u1 = 1.0 - u[0::2]
            u2 = u[1::2]
            r = np.sqrt(-2.0 * np.log(u1))
            z = np.empty(2 * pairs)
            z[0::2] = r * np.cos(_TWO_PI * u2)
            z[1::2] = r * np.sin(_TWO_PI * u2)
            out[have:] = z[:need]
            if need % 2 == 1:
                self._spare = float(z[need])
        return out

    def normals(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Array of N(mean, std**2) draws with the given shape."""
        if isinstance(shape, int):
            shape = (shape,)
        size = 1
        for dim in shape:
            size *= int(dim)
        flat = self.standard_normals(size)
        return (mean + std * flat).reshape(shape)


def write_text(path: str, text: str) -> None:
    """Write text to path atomically, creating the parent directory.

    The text goes to path + '.tmp', which is then renamed onto path.  On
    any error the temp file is removed and the error re-raised, so path
    keeps its old bytes (or stays absent).
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
