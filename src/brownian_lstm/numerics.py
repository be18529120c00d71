"""Matrix conventions, deterministic random streams, and the file writer.

Every tensor in this library is a 2-D, C-order, float64 numpy array;
column vectors have shape (n, 1).

All randomness flows through RngStream, a counter-based (Philox) bit
stream keyed by (seed, stream_id).  Gaussian variates come from the
Box-Muller transform applied to consecutive pairs of the stream's
uniforms, so the mapping from draw index to value does not depend on
how draws are chunked into calls.  Replaying a stream from the same
key reproduces the identical sequence bit for bit.

Normals are served from a buffer.  A stream's first draw computes
exactly the pairs it needs, so a one-shot draw starts no thread.  From
the second refill on, the stream also computes its next BLOCK_PAIRS
pairs in a short-lived daemon thread (Philox's fill and numpy's ufuncs
release the GIL, so the block is drawn on another CPU while the caller
works) and joins that thread at its next refill.  The block holds the
same pairs in the same order, so this moves no bit.  uniform() and
permutation() first join a pending block; once a block has been read
ahead, they read the bit stream past it, not where the last served
normal ended.  join_read_ahead() waits for every pending block, which
a process must do before it forks.

Every output file (reports, histories, checkpoints, figures) is written
through write_text, so a failed write never leaves a half-written file.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi
# Pairs per read-ahead block: 65,536 normals, 512 KB.
BLOCK_PAIRS = 32_768
_READ_AHEAD = "RngStream-read-ahead"


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
        # Normals drawn but not served: _buf[_pos:], then the block
        # _ahead that _worker fills (or failed to fill, see _error).
        self._buf = np.empty(0)
        self._pos = 0
        self._drawn = False
        self._ahead: np.ndarray | None = None
        self._worker: threading.Thread | None = None
        self._error: BaseException | None = None
        self._blocks: tuple | None = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, index: int) -> "RngStream":
        """Independent child stream, deterministic in (stream_id, index)."""
        child = _splitmix64(self.stream_id ^ _splitmix64(int(index) & _MASK64))
        return RngStream(self.seed, child)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform draw(s) on [low, high)."""
        self._settle()
        return low + (high - low) * self._bits.random(size)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n)."""
        self._settle()
        return self._bits.permutation(int(n))

    def standard_normals(self, n: int) -> np.ndarray:
        """n independent N(0, 1) draws via Box-Muller.

        Uses u1 on (0, 1] so the log stays finite.  Draws come from the
        buffer, then from the read-ahead block, then from pairs computed
        now; an odd trailing normal stays buffered for the next call.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"draw count must be non-negative, got {n}")
        out = np.empty(n)
        have = self._serve(out, 0)
        if have == n:
            return out
        if self._ahead is not None:
            self._settle()
            self._buf, self._pos, self._ahead = self._ahead, 0, None
            have = self._serve(out, have)
        if have < n:
            pairs = (n - have + 1) // 2
            z = np.empty(2 * pairs)
            self._fill(z, np.empty((2, pairs)))
            out[have:] = z[:n - have]
            self._buf, self._pos = z, n - have
        if self._drawn:
            self._read_ahead()
        self._drawn = True
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

    def _serve(self, out: np.ndarray, have: int) -> int:
        take = min(len(out) - have, len(self._buf) - self._pos)
        out[have:have + take] = self._buf[self._pos:self._pos + take]
        self._pos += take
        return have + take

    def _fill(self, z: np.ndarray, scratch: np.ndarray) -> None:
        # Overwrites z with the normals of the next len(z) // 2 pairs.
        # Each pair consumes two consecutive uniforms, so the draw
        # sequence is invariant to how calls are chunked and to block
        # boundaries.  The transcendental ufuncs run on contiguous
        # arrays, as r = sqrt(-2 log(1 - u[0::2])), r cos(2 pi u[1::2])
        # and r sin(2 pi u[1::2]) computed into fresh arrays do, so they
        # round the same; r is parked in u2's slots once t holds 2 pi u2.
        r, t = scratch
        self._bits.random(out=z)
        np.multiply(_TWO_PI, z[1::2], out=t)
        np.subtract(1.0, z[0::2], out=r)
        np.log(r, out=r)
        np.multiply(-2.0, r, out=r)
        np.sqrt(r, out=r)
        z[1::2] = r
        np.cos(t, out=r)
        np.multiply(z[1::2], r, out=z[0::2])
        np.sin(t, out=t)
        np.multiply(z[1::2], t, out=z[1::2])

    def _read_ahead(self) -> None:
        # Fill the block not being served in a daemon thread.  Only
        # numpy and _fill run there, so no caller-visible function does.
        if self._blocks is None:
            self._blocks = (np.empty(2 * BLOCK_PAIRS),
                            np.empty(2 * BLOCK_PAIRS),
                            np.empty((2, BLOCK_PAIRS)))
        first, second, scratch = self._blocks
        self._ahead = second if self._buf is first else first
        self._worker = threading.Thread(
            target=self._produce, args=(self._ahead, scratch),
            name=_READ_AHEAD, daemon=True)
        self._worker.start()

    def _produce(self, block: np.ndarray, scratch: np.ndarray) -> None:
        try:
            self._fill(block, scratch)
        except BaseException as exc:   # re-raised by _settle
            self._error = exc

    def _settle(self) -> None:
        # Join a pending block; a failed one fails every later draw, so
        # a half-filled block is never served.
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        if self._error is not None:
            raise self._error


def join_read_ahead() -> None:
    """Wait until no stream is computing a read-ahead block."""
    for thread in threading.enumerate():
        if thread.name == _READ_AHEAD:
            thread.join()


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
