"""Key-space utilities for associative arrays.

D4M keys are strings.  Internally every ``Assoc`` holds a *sorted unique*
NumPy unicode array per axis; entry coordinates are integer codes into those
arrays.  Binary operations align two arrays by building the union (or
intersection) key space and re-coding both operands — all with
``np.unique`` / ``np.searchsorted``, never a Python-level loop over keys.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "as_key_array",
    "canonicalize",
    "union_keys",
    "intersect_keys",
    "recode",
    "KeySelector",
]

#: Things accepted as a selector along one axis of ``Assoc.__getitem__``.
KeySelector = Union[str, int, Sequence, slice, np.ndarray]


def as_key_array(keys: Union[str, int, Iterable]) -> np.ndarray:
    """Coerce keys to a 1-D NumPy unicode array.

    Scalars become singleton arrays; ints (and any non-string scalar) are
    stringified, matching D4M's everything-is-a-string convention.  A D4M
    separator-terminated string like ``"a,b,c,"`` splits on its final
    character.
    """
    if isinstance(keys, str):
        if len(keys) > 1 and not keys[-1].isalnum():
            sep = keys[-1]
            parts = keys[:-1].split(sep)
            return np.asarray(parts, dtype=np.str_)
        return np.asarray([keys], dtype=np.str_)
    if isinstance(keys, (int, float, np.integer, np.floating)):
        return np.asarray([_scalar_to_key(keys)], dtype=np.str_)
    if isinstance(keys, np.ndarray):
        if keys.ndim != 1:
            raise ValueError("key arrays must be 1-D")
        if keys.dtype.kind == "U":
            return keys.astype(np.str_)
        if keys.dtype.kind == "S":
            return np.char.decode(keys, "utf-8")
        return np.asarray([_scalar_to_key(k) for k in keys.tolist()], dtype=np.str_)
    return np.asarray([_scalar_to_key(k) for k in keys], dtype=np.str_)


def _scalar_to_key(k) -> str:
    """Stringify one key, keeping integer-valued floats compact."""
    if isinstance(k, bytes):
        return k.decode("utf-8")
    if isinstance(k, (float, np.floating)) and float(k).is_integer():
        return str(int(k))
    return str(k)


def canonicalize(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return (sorted unique keys, codes) such that ``unique[codes] == keys``."""
    unique, codes = np.unique(keys, return_inverse=True)
    return unique, codes.astype(np.uint64)


def union_keys(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union key space and the re-coding of each operand's keys into it.

    Returns ``(union, code_a, code_b)`` where ``union[code_a] == a`` and
    ``union[code_b] == b``.  Inputs must be sorted unique arrays.
    """
    union = np.union1d(a, b)
    return union, np.searchsorted(union, a).astype(np.uint64), np.searchsorted(
        union, b
    ).astype(np.uint64)


def intersect_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted intersection of two sorted unique key arrays."""
    return np.intersect1d(a, b, assume_unique=True)


def recode(keys: np.ndarray, space: np.ndarray) -> np.ndarray:
    """Codes of ``keys`` inside sorted unique ``space``; all must be present."""
    codes = np.searchsorted(space, keys)
    if codes.size and (codes.max() >= space.size or not np.array_equal(space[codes], keys)):
        raise KeyError("key not present in target key space")
    return codes.astype(np.uint64)


def resolve_selector(selector: KeySelector, space: np.ndarray) -> np.ndarray:
    """Resolve a ``__getitem__`` selector to a sorted unique key subset.

    Supported selectors:

    * ``":"`` — the whole axis;
    * a single key (string or number);
    * a list/array of keys (missing keys are silently dropped — D4M
      selection semantics);
    * a ``slice`` of strings ``lo:hi`` — lexicographic half-open range
      (either bound may be ``None``);
    * a D4M separator-terminated string like ``"a,b,"``.
    """
    if isinstance(selector, str) and selector == ":":
        return space
    if isinstance(selector, slice):
        if selector.step is not None:
            raise ValueError("stepped key slices are not supported")
        lo = 0 if selector.start is None else np.searchsorted(space, str(selector.start))
        hi = (
            space.size
            if selector.stop is None
            else np.searchsorted(space, str(selector.stop))
        )
        return space[lo:hi]
    wanted = np.unique(as_key_array(selector))
    return intersect_keys(space, wanted)
