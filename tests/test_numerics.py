"""The deterministic Gaussian stream."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from brownian_lstm.numerics import BLOCK_PAIRS, RngStream, join_read_ahead

from helpers import ReadAheadBits

# SHA-256 of RngStream(2024, 11).standard_normals(200_003), computed
# before the stream served normals from read-ahead blocks.
GOLDEN_SHA256 = \
    "5b57aded0c079025315db398dc5f6b82fe6b8f3aafeb1602759f84f8e1812cc4"


def _read_ahead_threads():
    return [t for t in threading.enumerate()
            if t.name == "RngStream-read-ahead"]


class TestRngStream:
    def test_replay_is_bit_identical(self):
        def script(stream):
            parts = [stream.standard_normals(5), stream.uniform(size=3),
                     stream.standard_normals(4),
                     stream.normals((2, 2), mean=1.0, std=2.0).ravel()]
            return np.concatenate(parts)

        one = script(RngStream(123, 9))
        two = script(RngStream(123, 9))
        assert one.tobytes() == two.tobytes()

    def test_golden_bits_whole_and_in_cuts_across_blocks(self):
        whole = RngStream(2024, 11).standard_normals(200_003)
        assert hashlib.sha256(whole.tobytes()).hexdigest() == GOLDEN_SHA256
        # Cut positions straddle the exact first draws and the first
        # read-ahead block boundaries on either side.
        cuts = [0, 1, 65_535, 65_536, 131_073, 131_074, 196_609, 196_610,
                196_611, 200_003]
        stream = RngStream(2024, 11)
        parts = np.concatenate([stream.standard_normals(hi - lo)
                                for lo, hi in zip(cuts, cuts[1:])])
        assert hashlib.sha256(parts.tobytes()).hexdigest() == GOLDEN_SHA256

    def test_replay_with_uniforms_while_a_block_is_pending(self):
        def script(stream):
            parts = [stream.standard_normals(5), stream.standard_normals(6)]
            assert stream._worker is not None
            parts += [stream.uniform(size=3),
                      stream.permutation(9).astype(float),
                      stream.standard_normals(2 * BLOCK_PAIRS + 3),
                      stream.permutation(4).astype(float),
                      stream.standard_normals(7), stream.uniform(size=2)]
            return np.concatenate(parts)

        one = script(RngStream(123, 9))
        two = script(RngStream(123, 9))
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("draw,reference", [
        (lambda stream: stream.uniform(size=4), lambda bits: bits.random(4)),
        (lambda stream: stream.permutation(4),
         lambda bits: bits.permutation(4))])
    def test_after_normals_the_bits_are_read_past_the_block(self, draw,
                                                           reference):
        # The block is held back until a timer fires: a uniform or
        # permutation that did not wait for it would read its uniforms.
        stream = RngStream(31, 2)
        release = threading.Event()
        ReadAheadBits(stream, release)
        stream.standard_normals(5)   # 3 pairs, one normal left over
        stream.standard_normals(4)   # 2 more pairs, then a block ahead
        timer = threading.Timer(0.2, release.set)
        timer.start()
        got = draw(stream)
        timer.join(10)
        assert not timer.is_alive()
        bits = np.random.Generator(np.random.Philox(key=(2 << 64) | 31))
        bits.random(2 * (3 + 2 + BLOCK_PAIRS))
        assert got.tobytes() == reference(bits).tobytes()

    def test_one_shot_draws_start_no_thread(self):
        join_read_ahead()
        stream = RngStream(8)
        stream.standard_normals(3 * BLOCK_PAIRS + 1)
        stream.normals((1, 1))   # the odd pair's second normal
        assert stream._worker is None and _read_ahead_threads() == []
        stream.standard_normals(BLOCK_PAIRS)
        assert stream._worker.daemon
        join_read_ahead()
        assert _read_ahead_threads() == []

    def test_interleaved_streams_under_fast_thread_switching(self):
        # Four streams keep up to four read-ahead threads busy at once
        # while the caller drains their buffers; a block filled while
        # it is served, or served before it is filled, changes the bits.
        sizes = [1, 3, 70_000, 9, 40_000, 65_536, 2, 100_001, 5]
        seeds = range(40, 44)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streams = [RngStream(seed) for seed in seeds]
            got = [[stream.standard_normals(size) for stream in streams]
                   for size in sizes]
        finally:
            sys.setswitchinterval(old)
        for i, seed in enumerate(seeds):
            drawn = np.concatenate([row[i] for row in got])
            whole = RngStream(seed).standard_normals(sum(sizes))
            assert drawn.tobytes() == whole.tobytes()

    def test_producer_error_surfaces_and_sticks(self):
        stream = RngStream(4)
        ReadAheadBits(stream, fail=MemoryError("no room for the block"))
        first = stream.standard_normals(3)
        second = stream.standard_normals(3)   # read-ahead starts, fails
        assert np.concatenate([first, second]).tobytes() == \
            RngStream(4).standard_normals(6).tobytes()
        for draw in (lambda: stream.standard_normals(1),
                     lambda: stream.standard_normals(1),
                     lambda: stream.uniform(),
                     lambda: stream.permutation(3)):
            with pytest.raises(MemoryError, match="no room"):
                draw()

    def test_chunking_does_not_change_draws(self):
        whole = RngStream(5, 1).standard_normals(11)
        stream = RngStream(5, 1)
        parts = np.concatenate([stream.standard_normals(7),
                                stream.standard_normals(3),
                                stream.standard_normals(1)])
        assert whole.tobytes() == parts.tobytes()

    def test_distinct_streams_differ(self):
        a = RngStream(5, 1).standard_normals(100)
        b = RngStream(5, 2).standard_normals(100)
        c = RngStream(6, 1).standard_normals(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_determinism_and_independence(self):
        base = RngStream(17, 4)
        a = base.substream(0).standard_normals(20000)
        b = base.substream(1).standard_normals(20000)
        a2 = RngStream(17, 4).substream(0).standard_normals(20000)
        assert a.tobytes() == a2.tobytes()
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 0.03

    def test_gaussian_moments(self):
        # CLT bound on the mean, 5% window on the variance; the window
        # is wide against the ~0.45% sampling error of the variance at
        # this sample size.
        n = 100_000
        for seed, mean, std in ((2, 0.0, 1.0), (3, -1.5, 0.5), (4, 2.0, 2.0)):
            draws = RngStream(seed).normals((n,), mean=mean, std=std)
            assert abs(draws.mean() - mean) < 3.0 * std / np.sqrt(n)
            assert abs(draws.var(ddof=1) / std**2 - 1.0) < 0.05

    def test_uniform_range_and_determinism(self):
        a = RngStream(9).uniform(-2.0, 3.0, size=1000)
        b = RngStream(9).uniform(-2.0, 3.0, size=1000)
        assert a.min() >= -2.0 and a.max() < 3.0
        assert a.tobytes() == b.tobytes()

    def test_negative_draw_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(1).standard_normals(-1)
