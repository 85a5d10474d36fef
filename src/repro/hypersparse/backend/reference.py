"""The numpy reference backend.

These are the vectorized kernels that previously lived inline in
:mod:`repro.hypersparse.coo` and :mod:`repro.hypersparse.merge`, now
registered behind the kernel table in :mod:`.contract`.  This backend
is the semantic ground truth: every other backend must be bit-identical
to it (pinned by the randomized equivalence suite and, at runtime, by
the RS007 ``backend`` sanitizer replaying each dispatched call here).

The kernels are *total* pure functions over canonical-form inputs: no
counters, no fast-path shortcuts, no aliasing games — those belong to
the orchestrators in ``coo``/``merge`` that sit in front of the
dispatch handle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .contract import F64, IDX, MASK, U64, Run, ValueOp

__all__ = [
    "pack_keys",
    "unpack_keys",
    "combine_add",
    "combine_general",
    "count_duplicates",
    "merge_add",
    "merge_sub",
    "merge_general",
    "intersect_sorted",
    "in_sorted",
]


def _run_starts(sorted_arr: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values begins (input pre-sorted)."""
    first = np.empty(sorted_arr.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=first[1:])
    return np.flatnonzero(first)


def pack_keys(rows: U64, cols: U64, ncols: int) -> U64:
    """Map (row, col) to a single uint64 key preserving lexicographic order.

    For power-of-two column extents (the ``2^32``-wide IPv4 plane — every
    matrix the paper builds) the multiply/add collapses to a shift/or,
    which also lets :func:`unpack_keys` undo it with a shift/mask
    instead of 64-bit division.
    """
    if ncols & (ncols - 1) == 0:
        return (rows << np.uint64(ncols.bit_length() - 1)) | cols
    return rows * np.uint64(ncols) + cols


def unpack_keys(keys: U64, ncols: int) -> Tuple[U64, U64]:
    """Invert :func:`pack_keys`."""
    if ncols & (ncols - 1) == 0:
        shift = np.uint64(ncols.bit_length() - 1)
        return keys >> shift, keys & np.uint64(ncols - 1)
    ncols_u = np.uint64(ncols)
    return keys // ncols_u, keys % ncols_u


def combine_general(keys: U64, vals: F64, add: np.ufunc) -> Run:
    """Sort ``keys`` and combine values of equal keys with ``add``.

    Returns (unique sorted keys, combined values).  The canonicalization
    workhorse: the one sanctioned full sort, paid only where the input
    really is arbitrary (construction from raw triples, ``mxm`` product
    streams).
    """
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")  # lint: allow-resort — canonicalization site
    keys = keys[order]
    vals = vals[order]
    starts = _run_starts(keys)
    return keys[starts], add.reduceat(vals, starts)


def combine_add(keys: U64, vals: F64) -> Run:
    """:func:`combine_general` specialized to the ``+`` monoid.

    The hot instantiation — duplicate packets between the same address
    pair sum — split out so compiled backends can fuse the stable sort,
    gather and run-reduction without crossing a ufunc boundary.
    """
    return combine_general(keys, vals, np.add)


def count_duplicates(keys: U64) -> Run:
    """Sort ``keys`` and count multiplicities (the implicit-ones case).

    When every triple carries the default value 1 and duplicates combine
    with ``+`` — a batch of packets — the combined value of a coordinate
    is just its multiplicity.  That needs only the sorted *keys*: a plain
    ``np.sort`` beats the stable argsort of :func:`combine_add` because
    no permutation is materialized and no value array is gathered or
    reduced.  Counts are exact in float64 (integers far below 2^53).
    """
    if keys.size == 0:
        return keys, np.zeros(0, dtype=np.float64)
    keys = np.sort(keys)
    starts = _run_starts(keys)
    counts = np.diff(np.append(starts, keys.size)).astype(np.float64)
    return keys[starts], counts


#: The keys a merge returns may be a view of a buffer larger by at most
#: one entry in ``_MAX_SLACK``; a larger unused tail is copied away.
_MAX_SLACK = 64


def merge_general(
    keys_a: U64,
    vals_a: F64,
    keys_b: U64,
    vals_b: F64,
    op: np.ufunc,
    right_op: Optional[ValueOp],
) -> Run:
    """Union-combine two non-empty canonical key runs.

    Keys present in both runs get ``op(a_value, b_value)`` (operand
    order preserved); keys exclusive to one run pass their value
    through, with ``right_op`` applied to b-exclusive values when given.

    ``a`` then ``b`` is two sorted runs, and the stable argsort of 64-bit
    keys is a timsort that finds both runs and merges them by galloping
    in ``O(m + n)``, with no binary search per key.  Stability puts each
    shared key's ``a`` entry directly before its ``b`` entry, so the
    matched pairs are the adjacent equal keys.  Dropping each pair's
    ``b`` entry from the permutation is the one compaction; keys and
    values are gathered through it, values only for the entries kept.

    The key buffer is allocated at the union's upper bound before any
    temporary, so the temporaries sit above it in the heap and their
    space is reused or returned once freed.  When few keys match, the
    keys come back as a view of that buffer rather than a trimmed copy
    (trimming in place leaves a small free chunk between two large ones,
    which pins heap growth in long accumulation loops).
    """
    n_a = keys_a.size
    n = n_a + keys_b.size
    keys = np.empty(n, dtype=keys_a.dtype)
    cat = np.concatenate((keys_a, keys_b))
    order = np.argsort(cat, kind="stable")  # lint: allow-resort — two runs, merged in linear time
    # mode="clip" writes straight into ``out`` (every index is in range);
    # the default mode would gather into a buffer and copy it over.
    np.take(cat, order, out=keys, mode="clip")
    first = np.flatnonzero(keys[1:] == keys[:-1])
    if first.size:
        ib = order[first + 1] - n_a
        keep = np.ones(n, dtype=bool)
        keep[first + 1] = False
        order = order[keep]
        del keep
        keys = keys[: order.size]
        np.take(cat, order, out=keys, mode="clip")
        if first.size * _MAX_SLACK > n:
            keys = keys.copy()
    del cat
    vals = np.empty(order.size, dtype=np.float64)
    np.take(np.concatenate((vals_a, vals_b), dtype=np.float64), order, out=vals, mode="clip")
    if right_op is not None:
        b_only = order >= n_a
        vals[b_only] = right_op(vals[b_only])
    del order
    if first.size:
        # The j-th pair's a entry has j dropped b entries before it.
        pos = first - np.arange(first.size, dtype=np.intp)
        vals[pos] = op(vals[pos], vals_b[ib])
    return keys, vals


def merge_add(keys_a: U64, vals_a: F64, keys_b: U64, vals_b: F64) -> Run:
    """:func:`merge_general` specialized to ``+`` — the accumulation merge."""
    return merge_general(keys_a, vals_a, keys_b, vals_b, np.add, None)


def merge_sub(keys_a: U64, vals_a: F64, keys_b: U64, vals_b: F64) -> Run:
    """:func:`merge_general` specialized to ``a - b`` with b-only negated."""
    return merge_general(keys_a, vals_a, keys_b, vals_b, np.subtract, np.negative)


def intersect_sorted(keys_a: U64, keys_b: U64) -> Tuple[U64, IDX, IDX]:
    """Intersection of two canonical key runs, with operand indices.

    Returns ``(common, ia, ib)`` such that ``common == keys_a[ia] ==
    keys_b[ib]`` in sorted order — the same contract as
    ``np.intersect1d(..., assume_unique=True, return_indices=True)``
    without its internal concatenate-and-argsort.
    """
    if keys_a.size == 0 or keys_b.size == 0:
        empty_idx = np.zeros(0, dtype=np.intp)
        return np.zeros(0, dtype=keys_a.dtype), empty_idx, empty_idx
    if keys_b.size <= keys_a.size:
        idx = np.searchsorted(keys_a, keys_b)
        matched = keys_a[np.minimum(idx, keys_a.size - 1)] == keys_b
        ib = np.flatnonzero(matched)
        ia = idx[matched]
    else:
        idx = np.searchsorted(keys_b, keys_a)
        matched = keys_b[np.minimum(idx, keys_b.size - 1)] == keys_a
        ia = np.flatnonzero(matched)
        ib = idx[matched]
    return keys_a[ia], ia, ib


def in_sorted(sorted_keys: U64, queries: U64) -> MASK:
    """Boolean membership of ``queries`` in a canonical key run.

    The ``np.isin`` replacement for sorted unique haystacks: one binary
    search per query, no sorting.  ``queries`` may be in any order.
    """
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    idx = np.searchsorted(sorted_keys, queries)
    return sorted_keys[np.minimum(idx, sorted_keys.size - 1)] == queries
