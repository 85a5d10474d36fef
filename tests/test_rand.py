"""Counter-based hashing: determinism, independence, distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rand import hash_bernoulli, hash_u64, hash_uniform, splitmix64


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        a = hash_u64(7, np.arange(100), 3)
        b = hash_u64(7, np.arange(100), 3)
        np.testing.assert_array_equal(a, b)

    def test_subset_consistency(self):
        """Evaluating a subset of counters gives the same values as the
        corresponding slice of a full evaluation — the property the
        activity model depends on."""
        full = hash_uniform(11, np.arange(10_000), 5)
        sub = hash_uniform(11, np.arange(2_000, 3_000), 5)
        np.testing.assert_array_equal(full[2_000:3_000], sub)

    def test_seed_changes_everything(self):
        a = hash_u64(1, np.arange(1000))
        b = hash_u64(2, np.arange(1000))
        assert not np.any(a == b) or (a != b).mean() > 0.99

    def test_coordinate_independence(self):
        a = hash_u64(1, np.arange(1000), 0)
        b = hash_u64(1, np.arange(1000), 1)
        assert (a != b).mean() > 0.99


class TestDistribution:
    def test_uniform_moments(self):
        u = hash_uniform(42, np.arange(200_000))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.std() - np.sqrt(1 / 12)) < 0.005

    def test_uniform_range(self):
        u = hash_uniform(42, np.arange(10_000))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_bernoulli_rate(self):
        for p in (0.05, 0.3, 0.9):
            b = hash_bernoulli(p, 13, np.arange(100_000), 2)
            assert abs(b.mean() - p) < 0.01

    def test_bernoulli_elementwise_probs(self):
        probs = np.concatenate([np.zeros(1000), np.ones(1000)])
        b = hash_bernoulli(probs, 13, np.arange(2000))
        assert not b[:1000].any()
        assert b[1000:].all()

    def test_splitmix_avalanche(self):
        # Flipping one input bit flips ~half the output bits.
        x = np.arange(10_000, dtype=np.uint64)
        a = splitmix64(x)
        b = splitmix64(x ^ np.uint64(1))
        flipped = np.unpackbits(
            (a ^ b).view(np.uint8).reshape(-1, 8), axis=1
        ).sum(axis=1)
        assert 28 < flipped.mean() < 36


def splitmix64_python(x):
    """The splitmix64 finalizer on one Python int, wrapping at 2^64."""
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


class TestSplitmix:
    def test_matches_python_reference(self):
        x = hash_u64(5, np.arange(500))
        x[:3] = [0, 2**64 - 1, 2**63]
        got = splitmix64(x)
        assert got.dtype == np.uint64
        assert got.tolist() == [splitmix64_python(int(v)) for v in x]

    def test_zero_d_input(self):
        got = splitmix64(np.uint64(12345))
        assert np.asarray(got).shape == ()
        assert int(got) == splitmix64_python(12345)

    def test_input_not_modified(self):
        x = np.arange(100, dtype=np.uint64)
        splitmix64(x)
        assert np.array_equal(x, np.arange(100, dtype=np.uint64))


class TestValidation:
    def test_too_many_coordinates(self):
        with pytest.raises(ValueError):
            hash_u64(1, 1, 2, 3, 4, 5)

    def test_scalar_coordinates(self):
        out = hash_u64(1, 5, 7)
        assert out.shape == ()

    @given(st.integers(0, 2**63), st.integers(0, 2**20))
    @settings(max_examples=100, deadline=None)
    def test_scalar_vector_agreement(self, seed, coord):
        scalar = hash_u64(seed, coord)
        vector = hash_u64(seed, np.asarray([coord]))
        assert int(scalar) == int(vector[0])
