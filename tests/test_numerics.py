"""The deterministic Gaussian stream."""

import numpy as np
import pytest

from brownian_lstm.numerics import RngStream


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
