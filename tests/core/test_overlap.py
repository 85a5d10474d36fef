"""The one source-set overlap, against brute-force Python ``set`` arithmetic.

Every overlap fraction in the package — the temporal curves behind
Figs 5-8, the serve engine's published curve, the consistency and
vantage experiments — goes through :func:`repro.core.overlap_fraction`,
a binary search of each query into a sorted month.  These properties
pin it, and the two callers built on it, to exact ``set`` intersection
counts: empty queries, empty months, months with repeated entries and
keys at the top of the ``uint64`` range included.  Its precondition (a
sorted month) is checked under runtime invariants and costs nothing
otherwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import (
    InvariantViolation,
    debug_invariants,
    reset_validation_count,
    validations_performed,
)
from repro.core import (
    overlap_fraction,
    peak_correlation,
    source_overlap,
    temporal_correlation,
)
from repro.fits import per_source_trajectories
from repro.hypersparse.coo import SparseVec
from repro.rand import hash_u64, hash_uniform
from repro.serve import CorrelationEngine
from repro.traffic import Packets, constant_packet_windows

TOP = 2**64 - 1

#: Small keys collide often; keys near 2**64 - 1 probe the top of uint64.
keys = st.one_of(st.integers(0, 40), st.integers(TOP - 40, TOP))
#: A month as a sorted run that may repeat entries (or be empty).
months = st.lists(keys, max_size=30).map(sorted)


def u64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def set_fraction(queries, month) -> float:
    """Per-occurrence share of ``queries`` in ``month``, by ``set`` lookup."""
    seen = set(month)
    return sum(q in seen for q in queries) / len(queries) if queries else 0.0


class TestOverlapFraction:
    @given(queries=st.lists(keys, max_size=30), month=months)
    @settings(max_examples=200, deadline=None)
    def test_matches_set_arithmetic(self, queries, month):
        assert overlap_fraction(u64(queries), u64(month)) == set_fraction(queries, month)

    @given(queries=st.sets(keys, max_size=30), month=months)
    @settings(max_examples=100, deadline=None)
    def test_unique_queries_are_intersection_over_size(self, queries, month):
        q = sorted(queries)
        want = len(queries & set(month)) / len(q) if q else 0.0
        assert overlap_fraction(u64(q), u64(month)) == want
        common, frac = source_overlap(u64(q), u64(sorted(set(month))))
        assert frac == want
        assert common.tolist() == sorted(queries & set(month))

    def test_empty_queries_and_months(self):
        assert overlap_fraction(u64([]), u64([1, 2])) == 0.0
        assert overlap_fraction(u64([]), u64([])) == 0.0
        assert overlap_fraction(u64([1, 2]), u64([])) == 0.0

    def test_top_of_uint64(self):
        month = u64([0, TOP - 1, TOP, TOP])
        assert overlap_fraction(u64([TOP, TOP - 2, 0, TOP]), month) == 0.75

    def test_returns_python_float(self):
        assert type(overlap_fraction(u64([1]), u64([1]))) is float


class TestTemporalCorrelation:
    @given(
        sources=st.sets(keys, max_size=30),
        monthly=st.lists(months, min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_fractions_match_set_arithmetic(self, sources, monthly):
        tel = sorted(sources)
        vec = SparseVec(u64(tel), np.ones(len(tel)))
        times = [i + 0.5 for i in range(len(monthly))]
        curve = temporal_correlation(vec, [u64(m) for m in monthly], times, t0=0.5)
        want = [set_fraction(tel, m) for m in monthly]
        assert curve.fractions.tolist() == want
        assert curve.n_sources == len(tel)


def seeded_stream(seed: int, n: int, n_sources: int = 300) -> Packets:
    """Deterministic packet stream from counter-mode randomness."""
    i = np.arange(n, dtype=np.uint64)
    times = np.sort(hash_uniform(seed, i) * 100.0)
    src = hash_u64(seed, i, 1) % np.uint64(n_sources)
    dst = hash_u64(seed, i, 2) % np.uint64(n_sources)
    return Packets(times, src, dst)


class TestEngineSnapshot:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_valid=st.integers(32, 200),
        monthly=st.lists(
            st.lists(st.one_of(st.integers(0, 300), st.integers(TOP - 40, TOP)), max_size=60),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_overlap_fractions_match_set_arithmetic(self, seed, n_valid, monthly):
        packets = seeded_stream(seed, 600)
        latest = constant_packet_windows(packets, n_valid)[-1].packets
        tel = sorted(set(latest.src.tolist()))
        with CorrelationEngine(n_valid, cutoff=1 << 8) as engine:
            engine.fold_batch(packets)
            # Months arrive unsorted, with repeats; the engine canonicalizes.
            for i, month in enumerate(monthly):
                engine.fold_month(i + 0.5, u64(month))
            snap = engine.publish()
        want = [set_fraction(tel, m) for m in monthly]
        assert snap.overlap_fractions.tolist() == want


class TestSortedPrecondition:
    UNSORTED = u64([5, 1, 3])

    def test_overlap_fraction_raises_under_invariants(self):
        with debug_invariants():
            with pytest.raises(InvariantViolation, match="not sorted"):
                overlap_fraction(u64([1, 3]), self.UNSORTED)

    def test_temporal_correlation_raises_under_invariants(self):
        vec = SparseVec(u64([1, 3]), [1.0, 1.0])
        with debug_invariants():
            with pytest.raises(InvariantViolation):
                temporal_correlation(vec, [self.UNSORTED], [0.5], t0=0.5)

    def test_mask_sites_raise_under_invariants(self):
        vec = SparseVec(u64([1, 3]), [1.0, 2.0])
        with debug_invariants():
            with pytest.raises(InvariantViolation):
                peak_correlation(vec, self.UNSORTED, n_valid=16)
            with pytest.raises(InvariantViolation):
                per_source_trajectories(u64([1, 3]), [self.UNSORTED])

    def test_source_overlap_requires_unique_sorted(self):
        with debug_invariants():
            with pytest.raises(InvariantViolation, match="strictly increasing"):
                source_overlap(u64([1, 3]), u64([1, 1, 3]))

    def test_repeats_are_sorted_enough(self):
        with debug_invariants():
            assert overlap_fraction(u64([1, 3]), u64([1, 1, 3, 3])) == 1.0

    def test_no_validation_work_when_off(self):
        with debug_invariants(False):
            reset_validation_count()
            overlap_fraction(u64([1, 3]), u64([1, 3]))
            peak_correlation(SparseVec(u64([1, 3]), [1.0, 2.0]), u64([1, 3]), n_valid=16)
            per_source_trajectories(u64([1, 3]), [u64([1, 3])])
            assert validations_performed() == 0
