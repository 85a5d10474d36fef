"""Sorted-merge kernel layer: bit-identical to the argsort path it replaced.

Every test here compares :mod:`repro.hypersparse.merge` (and the matrix
operations routed through it) against the stable-argsort + ``reduceat``
reference it displaced — with ``np.array_equal``, not ``allclose``: the
fast path's contract is *bit-identical* canonical output.  Inputs are
generated with :mod:`repro.rand` counter-mode hashing so every case is
seeded and order-independent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import debug_invariants
from repro.hypersparse import HierarchicalMatrix, HyperSparseMatrix
from repro.hypersparse.merge import (
    in_sorted,
    intersect_sorted,
    kway_merge,
    merge_combine,
    sorted_unique,
)
from repro.hypersparse.spill import ColumnarWriter, load_run, merge_runs_streamed
from repro.rand import hash_u64, hash_uniform

SPACE = 10_000


def make_run(seed, n, lo=0, hi=SPACE, integral=True):
    """A canonical run: sorted unique uint64 keys with aligned float64 values."""
    raw = hash_u64(seed, np.arange(n, dtype=np.uint64))
    keys = np.unique(raw % np.uint64(hi - lo) + np.uint64(lo))
    if integral:
        vals = (hash_u64(seed + 1, keys) % np.uint64(8) + np.uint64(1)).astype(np.float64)
    else:
        vals = hash_uniform(seed + 1, keys)
    return keys, vals


def make_pair(pattern, seed, integral=True):
    """Two canonical runs arranged in the named overlap pattern."""
    empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64))
    if pattern == "both_empty":
        return (*empty, *empty)
    if pattern == "left_empty":
        return (*empty, *make_run(seed, 50, integral=integral))
    if pattern == "right_empty":
        return (*make_run(seed, 50, integral=integral), *empty)
    if pattern == "disjoint":
        ka, va = make_run(seed, 50, lo=0, hi=SPACE // 2, integral=integral)
        kb, vb = make_run(seed + 7, 50, lo=SPACE // 2, hi=SPACE, integral=integral)
        return ka, va, kb, vb
    if pattern == "identical":
        ka, va = make_run(seed, 60, integral=integral)
        _, vb = make_run(seed + 7, 60, integral=integral)
        return ka, va, ka.copy(), vb[: ka.size]
    if pattern == "overlapping":
        ka, va = make_run(seed, 80, integral=integral)
        kb, vb = make_run(seed + 7, 80, integral=integral)
        return ka, va, kb, vb
    if pattern == "asymmetric":
        ka, va = make_run(seed, 2000, integral=integral)
        kb, vb = make_run(seed + 7, 5, integral=integral)
        return ka, va, kb, vb
    raise ValueError(pattern)


PATTERNS = (
    "both_empty",
    "left_empty",
    "right_empty",
    "disjoint",
    "identical",
    "overlapping",
    "asymmetric",
)


def reference_union(ka, va, kb, vb, op):
    """The displaced path: stable concat + argsort + reduceat."""
    keys = np.concatenate([ka, kb])
    vals = np.concatenate([va, vb])
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], op.reduceat(vals, starts)


class TestMergeCombine:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("op", [np.add, np.maximum, np.minimum], ids=["add", "max", "min"])
    def test_bit_identical_to_argsort_path(self, pattern, seed, op):
        ka, va, kb, vb = make_pair(pattern, seed)
        keys, vals = merge_combine(ka, va, kb, vb, op)
        rk, rv = reference_union(ka, va, kb, vb, op)
        assert np.array_equal(keys, rk)
        assert np.array_equal(vals, rv)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_bit_identical_on_arbitrary_floats(self, pattern):
        # Matched keys combine as op(a_value, b_value) in operand order —
        # exactly what reduceat does over a stable-sorted [a, b] pair —
        # so even non-integral floats are bit-identical, not just close.
        ka, va, kb, vb = make_pair(pattern, 11, integral=False)
        keys, vals = merge_combine(ka, va, kb, vb, np.add)
        rk, rv = reference_union(ka, va, kb, vb, np.add)
        assert np.array_equal(keys, rk)
        assert np.array_equal(vals, rv)

    def test_operand_order_preserved(self):
        ka = np.array([3], dtype=np.uint64)
        va = np.array([10.0])
        kb = np.array([3], dtype=np.uint64)
        vb = np.array([4.0])
        _, vals = merge_combine(ka, va, kb, vb, np.subtract)
        assert vals[0] == 6.0
        # Swapped operands must swap the result: op order is a contract.
        _, vals = merge_combine(kb, vb, ka, va, np.subtract)
        assert vals[0] == -6.0

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", [4, 5])
    def test_right_op_subtraction(self, pattern, seed):
        ka, va, kb, vb = make_pair(pattern, seed)
        keys, vals = merge_combine(ka, va, kb, vb, np.subtract, right_op=np.negative)
        ref = {}
        for k, v in zip(ka.tolist(), va.tolist()):
            ref[k] = v
        for k, v in zip(kb.tolist(), vb.tolist()):
            ref[k] = ref.get(k, 0.0) - v
        assert keys.tolist() == sorted(ref)
        assert vals.tolist() == [ref[k] for k in sorted(ref)]

    def test_empty_side_aliases_input(self):
        ka, va = make_run(1, 40)
        empty_k = np.zeros(0, dtype=np.uint64)
        empty_v = np.zeros(0, dtype=np.float64)
        keys, vals = merge_combine(ka, va, empty_k, empty_v, np.add)
        assert keys is ka and vals is va


def reference_merge(ka, va, kb, vb, op, right_op=None):
    """The argsort path, with ``right_op`` applied to b-exclusive values first."""
    if right_op is not None:
        vb = vb.copy()
        b_only = ~np.isin(kb, ka)
        vb[b_only] = right_op(vb[b_only])
    return reference_union(ka, va, kb, vb, op)


def bits(vals):
    """Float values as raw bit patterns, so NaN and -0.0 compare exactly."""
    return np.ascontiguousarray(vals, dtype=np.float64).view(np.uint64)


def assert_bit_identical(got, want):
    assert got[0].dtype == want[0].dtype == np.uint64
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(bits(got[1]), bits(want[1]))


#: (|a|, |b|) size pairs: the kernel takes the two runs in operand order
#: whatever their sizes, so every ordering of sizes is pinned.
SIZES = [(2000, 37), (37, 2000), (500, 500)]
NON_COMMUTATIVE = [np.subtract, np.divide, np.arctan2]


class TestTwoRunKernel:
    """The stable two-run sort kernel behind ``merge_combine``."""

    @pytest.mark.parametrize("na,nb", SIZES)
    @pytest.mark.parametrize("op", NON_COMMUTATIVE, ids=lambda f: f.__name__)
    def test_non_commutative_op(self, na, nb, op):
        ka, va = make_run(41, na, integral=False)
        kb, vb = make_run(43, nb, integral=False)
        with np.errstate(all="ignore"):
            got = merge_combine(ka, va, kb, vb, op)
            want = reference_union(ka, va, kb, vb, op)
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("na,nb", SIZES)
    @pytest.mark.parametrize("op", [np.subtract, np.divide, np.add], ids=lambda f: f.__name__)
    def test_right_op(self, na, nb, op):
        ka, va = make_run(47, na, integral=False)
        kb, vb = make_run(53, nb, integral=False)
        with np.errstate(all="ignore"):
            got = merge_combine(ka, va, kb, vb, op, right_op=np.negative)
            want = reference_merge(ka, va, kb, vb, op, np.negative)
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("drop", ["a", "b"])
    def test_full_overlap_but_one_key(self, drop):
        # Every key matches except one, so almost every entry pairs up
        # and exactly one passes through from the larger run.
        keys, _ = make_run(59, 400)
        ka, kb = (keys[1:], keys) if drop == "a" else (keys, np.delete(keys, 7))
        va = hash_uniform(61, ka)
        vb = hash_uniform(67, kb)
        for op, right_op in [(np.subtract, None), (np.subtract, np.negative), (np.add, None)]:
            got = merge_combine(ka, va, kb, vb, op, right_op=right_op)
            want = reference_merge(ka, va, kb, vb, op, right_op)
            assert_bit_identical(got, want)
            assert got[0].size == keys.size

    @pytest.mark.parametrize(
        "ka,kb",
        [([5], [5]), ([5], [9]), ([9], [5]), ([5], [1, 5, 9]), ([1, 5, 9], [9])],
        ids=["match", "a-first", "b-first", "one-in-many", "many-one"],
    )
    def test_one_element_runs(self, ka, kb):
        ka = np.array(ka, dtype=np.uint64)
        kb = np.array(kb, dtype=np.uint64)
        va = np.arange(1.0, ka.size + 1.0)
        vb = -np.arange(10.0, kb.size + 10.0)
        for right_op in (None, np.negative):
            got = merge_combine(ka, va, kb, vb, np.subtract, right_op=right_op)
            want = reference_merge(ka, va, kb, vb, np.subtract, right_op)
            assert_bit_identical(got, want)

    @pytest.mark.parametrize(
        "op", [np.add, np.subtract, np.maximum, np.minimum], ids=lambda f: f.__name__
    )
    def test_signed_zeros_infinities_and_nan(self, op):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5])
        # Every special value meets every other one on a shared key, and
        # each also passes through unmatched on an exclusive key.
        pairs = np.array([(x, y) for x in special for y in special])
        n = pairs.shape[0]
        ka = np.arange(0, 2 * n, 2, dtype=np.uint64)
        extra = np.arange(2 * n + 1, 2 * n + 1 + 2 * special.size, 2, dtype=np.uint64)
        kb = np.concatenate([ka, extra])
        va = pairs[:, 0].copy()
        vb = np.concatenate([pairs[:, 1], special])
        with np.errstate(invalid="ignore"):
            for right_op in (None, np.negative):
                got = merge_combine(ka, va, kb, vb, op, right_op=right_op)
                want = reference_merge(ka, va, kb, vb, op, right_op)
                assert_bit_identical(got, want)

    def test_inputs_untouched(self):
        ka, va = make_run(67, 300, integral=False)
        kb, vb = make_run(71, 200, integral=False)
        before = [x.tobytes() for x in (ka, va, kb, vb)]
        merge_combine(ka, va, kb, vb, np.subtract, right_op=np.negative)
        assert [x.tobytes() for x in (ka, va, kb, vb)] == before

    @pytest.mark.parametrize("shared", [1, 300])
    def test_key_buffer_slack_bounded(self, shared):
        # The keys may be a view of the upper-bound buffer, whose unused
        # tail (one entry per matched pair) stays within 1/64 of the keys.
        ka = np.arange(0, 4000, 2, dtype=np.uint64)
        kb = np.union1d(ka[:shared], np.arange(1, 2000, 2, dtype=np.uint64))
        keys, vals = merge_combine(ka, np.ones(ka.size), kb, np.ones(kb.size))
        assert_bit_identical(
            (keys, vals), reference_union(ka, np.ones(ka.size), kb, np.ones(kb.size), np.add)
        )
        buffer = keys if keys.base is None else keys.base
        assert buffer.size * 64 <= keys.size * 65

    def test_streamed_segment_boundary_match(self, tmp_path):
        # Segments cut at every `chunk`-th key of the larger run; a key
        # shared by both runs sits exactly on each cut, so every such
        # pair must land in the same segment and combine once.
        chunk = 4
        ka = np.arange(0, 80, 2, dtype=np.uint64)
        cuts = ka[chunk::chunk]
        kb = np.union1d(cuts, np.arange(1, 30, 6, dtype=np.uint64)).astype(np.uint64)
        va = hash_uniform(73, ka)
        vb = hash_uniform(79, kb)
        whole = merge_combine(ka, va, kb, vb)
        with ColumnarWriter(tmp_path / "m.col", (1 << 16, 1 << 16)) as w:
            merge_runs_streamed((ka, va), (kb, vb), w, chunk=chunk)
            run = w.close()
        got_k, got_v, _ = load_run(run.path)
        assert_bit_identical((np.asarray(got_k), np.asarray(got_v)), whole)
        assert_bit_identical(whole, reference_union(ka, va, kb, vb, np.add))


class TestIntersectAndMembership:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_intersect_matches_numpy(self, pattern, seed):
        ka, _, kb, _ = make_pair(pattern, seed)
        common, ia, ib = intersect_sorted(ka, kb)
        ref_common, ref_ia, ref_ib = np.intersect1d(
            ka, kb, assume_unique=True, return_indices=True
        )
        assert np.array_equal(common, ref_common)
        assert np.array_equal(ia, ref_ia)
        assert np.array_equal(ib, ref_ib)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_in_sorted_matches_isin(self, pattern):
        ka, _, kb, _ = make_pair(pattern, 3)
        assert np.array_equal(in_sorted(ka, kb), np.isin(kb, ka, assume_unique=True))
        # Unsorted queries are allowed.
        assert np.array_equal(in_sorted(ka, kb[::-1]), np.isin(kb[::-1], ka))


_U64_MAX = 2**64 - 1

#: uint64 draws: full range, a small value pool (many repeats) and the
#: top of the range, where a signed or float detour would wrap or round.
_u64_arrays = st.one_of(
    st.lists(st.integers(0, _U64_MAX), max_size=200),
    st.lists(st.integers(0, 7), max_size=200),
    st.lists(st.integers(_U64_MAX - 16, _U64_MAX), max_size=200),
).map(lambda xs: np.asarray(xs, dtype=np.uint64))


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(_u64_arrays)
    def test_matches_np_unique(self, keys):
        got = sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "keys",
        [
            np.zeros(0, dtype=np.uint64),
            np.full(9, 5, dtype=np.uint64),
            np.array([_U64_MAX, 0, _U64_MAX, _U64_MAX - 1], dtype=np.uint64),
            hash_u64(3, np.arange(5000, dtype=np.uint64)) % np.uint64(1000),
        ],
        ids=["empty", "all_equal", "near_max", "random"],
    )
    def test_edge_cases(self, keys):
        got = sorted_unique(keys)
        assert got.dtype == keys.dtype
        assert np.array_equal(got, np.unique(keys))

    def test_does_not_modify_input(self):
        keys = np.array([3, 1, 3, 2], dtype=np.uint64)
        sorted_unique(keys)
        assert keys.tolist() == [3, 1, 3, 2]


class TestKwayMerge:
    def test_matches_pairwise_reference(self):
        runs = [make_run(seed, n) for seed, n in ((1, 10), (2, 500), (3, 40), (4, 3))]
        keys, vals = kway_merge(runs)
        rk = np.zeros(0, dtype=np.uint64)
        rv = np.zeros(0, dtype=np.float64)
        for ka, va in runs:
            rk, rv = reference_union(rk, rv, ka, va, np.add)
        # Integral values: any fold order sums exactly.
        assert np.array_equal(keys, rk)
        assert np.array_equal(vals, rv)

    def test_empty_input(self):
        keys, vals = kway_merge([])
        assert keys.size == 0 and vals.size == 0

    def test_single_run_passes_through(self):
        ka, va = make_run(9, 30)
        keys, vals = kway_merge([(ka, va)])
        assert np.array_equal(keys, ka) and np.array_equal(vals, va)

    def test_drops_empty_runs(self):
        ka, va = make_run(9, 30)
        empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64))
        keys, vals = kway_merge([empty, (ka, va), empty])
        assert np.array_equal(keys, ka) and np.array_equal(vals, va)


def random_matrix(seed, shape, n=80):
    rows = hash_u64(seed, np.arange(n, dtype=np.uint64)) % np.uint64(shape[0])
    cols = hash_u64(seed + 1, np.arange(n, dtype=np.uint64)) % np.uint64(shape[1])
    vals = (hash_u64(seed + 2, np.arange(n, dtype=np.uint64)) % np.uint64(8) + np.uint64(1))
    return HyperSparseMatrix(rows, cols, vals.astype(np.float64), shape=shape)


@pytest.mark.parametrize("shape", [(64, 64), (50, 37)], ids=["pow2", "odd"])
@pytest.mark.parametrize("invariants", [False, True], ids=["fast", "checked"])
class TestMatrixOpsThroughMergeKernels:
    """End-to-end equivalence of the rerouted matrix operations.

    Parametrized over a power-of-two shape (shift/mask linearization, the
    IPv4-plane case) and an odd shape (multiply/divide path), with and
    without REPRO_DEBUG_INVARIANTS-equivalent validation.
    """

    def test_ewise_add_bit_identical_to_construction(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(21, shape)
            b = random_matrix(22, shape)
            merged = a.ewise_add(b)
            rebuilt = HyperSparseMatrix(
                np.concatenate([a.rows, b.rows]),
                np.concatenate([a.cols, b.cols]),
                np.concatenate([a.vals, b.vals]),
                shape=shape,
            )
            assert merged == rebuilt
            np.testing.assert_array_equal(
                merged.to_dense(), a.to_dense() + b.to_dense()
            )

    def test_ewise_mult_matches_dense(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(23, shape)
            b = random_matrix(24, shape)
            np.testing.assert_array_equal(
                a.ewise_mult(b).to_dense(), a.to_dense() * b.to_dense()
            )

    def test_sub_matches_dense_without_negated_copy(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(25, shape)
            b = random_matrix(26, shape)
            np.testing.assert_array_equal(
                (a - b).to_dense(), a.to_dense() - b.to_dense()
            )

    def test_mxm_matches_dense(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(27, (shape[0], shape[0]))
            b = random_matrix(28, (shape[0], shape[1]))
            np.testing.assert_array_equal(
                a.mxm(b).to_dense(), a.to_dense() @ b.to_dense()
            )

    def test_getitem_every_stored_entry(self, shape, invariants):
        with debug_invariants(invariants):
            m = random_matrix(29, shape)
            stored = set(zip(m.rows.tolist(), m.cols.tolist()))
            for i, j, v in zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist()):
                assert m[i, j] == v
            absent = next(
                (i, j)
                for i in range(shape[0])
                for j in range(shape[1])
                if (i, j) not in stored
            )
            assert m[absent] == 0.0

    def test_hierarchical_total_bit_identical_to_flat(self, shape, invariants):
        with debug_invariants(invariants):
            hier = HierarchicalMatrix(shape=shape, cutoff=32)
            all_rows, all_cols, all_vals = [], [], []
            for seed in range(31, 39):
                m = random_matrix(seed, shape, n=60)
                hier.insert_matrix(m)
                all_rows.append(m.rows)
                all_cols.append(m.cols)
                all_vals.append(m.vals)
            flat = HyperSparseMatrix(
                np.concatenate(all_rows),
                np.concatenate(all_cols),
                np.concatenate(all_vals),
                shape=shape,
            )
            # Integral values: the smallest-first fold sums exactly, so the
            # collapse is bit-identical to one flat canonicalization.
            assert hier.total() == flat


class TestLazyKeyCache:
    def test_keys_cached_per_instance(self):
        m = random_matrix(41, (64, 64))
        assert m.keys is m.keys

    def test_merge_result_delays_delinearization(self):
        # Invariant validation itself reads .rows, which (correctly)
        # materializes the lazy view — laziness is only observable with
        # validation off, so pin that mode regardless of the env flag.
        with debug_invariants(False):
            a = random_matrix(42, (64, 64))
            b = random_matrix(43, (64, 64))
            c = a.ewise_add(b)
        assert c._rows is None and c._cols is None and c._keys is not None
        rows = c.rows  # forces (and caches) the coordinate views
        assert c._rows is rows
        expected = np.concatenate([a.rows, b.rows])
        assert set(rows.tolist()) <= set(expected.tolist())

    def test_lazy_views_round_trip(self):
        a = random_matrix(44, (50, 37))
        b = random_matrix(45, (50, 37))
        c = a.ewise_add(b)
        again = HyperSparseMatrix(c.rows, c.cols, c.vals, shape=c.shape)
        assert c == again

    def test_copy_preserves_cached_views(self):
        m = random_matrix(46, (64, 64))
        _ = m.keys
        dup = m.copy()
        assert dup == m
        assert dup.keys is not m.keys
        assert np.array_equal(dup.keys, m.keys)
