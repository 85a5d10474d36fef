"""Canonical-form-aware sorted-merge kernels.

Every matrix and vector in this package maintains the canonical-form
invariant: linearized ``(row, col)`` keys strictly increasing, values
aligned.  The construction path has to pay a full ``argsort`` to
*establish* that invariant over arbitrary triples — but the algebra
(``ewise_add``, hierarchical level merges, vector unions) combines
operands that are **already** two sorted unique runs, and re-sorting
them throws the invariant away.  This module is the fast path those
operations share:

* :func:`merge_combine` — union-combine two canonical runs in
  ``O(m + n)``: one stable argsort of ``a`` then ``b``, which for
  64-bit keys is a timsort that finds the two sorted runs and merges
  them by galloping in linear time, then gathers through the permutation;
  with an ``O(n)`` short-circuit when both runs have identical keys;
* :func:`intersect_sorted` — sorted-run intersection with indices, the
  ``np.intersect1d`` replacement for canonical operands;
* :func:`in_sorted` — membership of queries in a sorted unique run, the
  ``np.isin`` replacement for canonical operands;
* :func:`sorted_unique` — the sorted distinct values of an integer
  array, the ``np.unique`` replacement that builds canonical runs from
  arbitrary keys by sorting instead of hashing;
* :func:`kway_merge` — size-ordered fold of many runs (the
  :meth:`~repro.hypersparse.hierarchical.HierarchicalMatrix.total`
  collapse), always merging the two smallest pending runs so
  intermediate results stay as small as possible.

The kernels are exact: for any inputs they produce bit-identical keys
and values to the stable-argsort + ``reduceat`` path (property-tested in
``tests/hypersparse/test_merge.py``).  Uses of the fast path are counted
by the ``merge_fastpath_hits`` counter; full argsort canonicalizations
(construction from arbitrary triples) count ``merge_fastpath_misses`` —
see :mod:`repro.obs.metrics` and ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.contracts import check_sorted
from ..obs.metrics import MERGE_FASTPATH_HITS, inc
from .backend import KERNELS as _K

__all__ = ["merge_combine", "intersect_sorted", "in_sorted", "sorted_unique", "kway_merge"]

Run = Tuple[np.ndarray, np.ndarray]


def _identical_keys(keys_a: np.ndarray, keys_b: np.ndarray) -> bool:
    """Cheap test for byte-identical key runs (equal-size inputs only)."""
    if keys_a.size != keys_b.size:
        return False
    if keys_a.size == 0:
        return True
    # Endpoint probes reject almost every non-identical pair before the
    # full O(n) comparison is paid.
    if keys_a[0] != keys_b[0] or keys_a[-1] != keys_b[-1]:
        return False
    return bool(np.array_equal(keys_a, keys_b))


def merge_combine(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
    op: np.ufunc = np.add,
    *,
    right_op: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Run:
    """Union-combine two canonical (strictly sorted, unique) key runs.

    Returns ``(keys, vals)`` with the union of both key sets in sorted
    order: keys present in both runs get ``op(a_value, b_value)``
    (operand order preserved, exactly like the stable-argsort +
    ``reduceat`` path); keys exclusive to one run pass their value
    through.  ``right_op``, when given, is applied to values exclusive
    to the *b* run — how subtraction passes ``-b`` through without
    materializing a negated operand.

    Output arrays may alias the inputs when one run is empty or both
    runs share identical keys; canonical containers are immutable so
    sharing is safe.

    The shortcut logic and fastpath counters live here; the actual
    two-run merge dispatches through the kernel-backend handle —
    ``merge_add``/``merge_sub`` for the two hot instantiations (matrix
    ``+`` and ``-``), ``merge_general`` for arbitrary ufuncs.
    """
    if keys_b.size == 0:
        inc(MERGE_FASTPATH_HITS)
        return keys_a, vals_a
    if keys_a.size == 0:
        inc(MERGE_FASTPATH_HITS)
        return keys_b, (vals_b if right_op is None else right_op(vals_b))
    inc(MERGE_FASTPATH_HITS)
    if _identical_keys(keys_a, keys_b):
        return keys_a, np.asarray(op(vals_a, vals_b), dtype=np.float64)
    if op is np.add and right_op is None:
        return _K.merge_add(keys_a, vals_a, keys_b, vals_b)
    if op is np.subtract and right_op is np.negative:
        return _K.merge_sub(keys_a, vals_a, keys_b, vals_b)
    return _K.merge_general(keys_a, vals_a, keys_b, vals_b, op, right_op)


def intersect_sorted(
    keys_a: np.ndarray, keys_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection of two canonical key runs, with operand indices.

    Returns ``(common, ia, ib)`` such that ``common == keys_a[ia] ==
    keys_b[ib]`` in sorted order — the same contract as
    ``np.intersect1d(..., assume_unique=True, return_indices=True)``
    without its internal concatenate-and-argsort.  Thin public wrapper
    over the backend kernel for consumers outside the hypersparse
    package (d4m associative arrays, the core overlap, tests).  Under
    runtime invariants both runs are checked strictly increasing.
    """
    check_sorted(keys_a, "intersect_sorted keys_a", strict=True)
    check_sorted(keys_b, "intersect_sorted keys_b", strict=True)
    return _K.intersect_sorted(keys_a, keys_b)


def in_sorted(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean membership of ``queries`` in a canonical key run.

    The ``np.isin`` replacement for sorted haystacks: one binary search
    per query, no sorting.  ``queries`` may be in any order; repeated
    haystack entries are harmless, but an unsorted haystack gives wrong
    answers silently, so under runtime invariants it is checked
    non-decreasing here — the one check every consumer outside the
    hypersparse package (the core overlap fraction, per-source masks)
    passes through.
    """
    check_sorted(sorted_keys, "in_sorted haystack")
    return _K.in_sorted(sorted_keys, queries)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array (``np.unique(keys)``).

    Same values, order and dtype as ``np.unique``, computed as one sort
    plus an adjacent-difference mask.  NumPy 2.x answers a plain
    ``np.unique`` of integers through a hash table, which on a few
    million ``uint64`` keys costs tens of times more than the sort.
    Input of any shape is flattened, as ``np.unique`` does.
    """
    out = np.sort(np.asarray(keys), axis=None)
    if out.size < 2:
        return out
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def kway_merge(runs: Sequence[Run], op: np.ufunc = np.add) -> Run:
    """Fold many canonical runs into one, smallest pair first.

    Always merges the two smallest pending runs (a Huffman-style fold),
    so intermediate results stay as small as the key overlap allows —
    the collapse order for hierarchical-matrix ladders, where level
    sizes span orders of magnitude.  Returns an empty run for empty
    input.  With non-associative ``op`` semantics (floating-point
    rounding), the fold order is part of the contract: size-ordered,
    ties broken by input order.
    """
    pending: List[Run] = [r for r in runs if r[0].size]
    if not pending:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64)
    pending.sort(key=lambda r: r[0].size)
    # lint: allow-loop — folds O(log n) ladder levels, never entries
    while len(pending) > 1:
        ka, va = pending.pop(0)
        kb, vb = pending.pop(0)
        insort(pending, merge_combine(ka, va, kb, vb, op), key=lambda r: r[0].size)
    return pending[0]
