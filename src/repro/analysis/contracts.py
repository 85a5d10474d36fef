"""Runtime validation of the hypersparse canonical-form invariants.

The static rules in :mod:`repro.analysis.rules` catch invariant
violations you can see in source; this module catches the ones you
can't — a kernel that returns unsorted triples, duplicated coordinates,
or the wrong dtype.  Validation is **off by default** so hot paths stay
allocation-free; enable it with the environment flag::

    REPRO_DEBUG_INVARIANTS=1 python -m pytest tests/hypersparse

or programmatically via :func:`enable_invariants` /
:func:`debug_invariants`.  When disabled, the hooks compiled into
:class:`~repro.hypersparse.coo.HyperSparseMatrix`,
:class:`~repro.hypersparse.coo.SparseVec` and
:class:`~repro.d4m.assoc.Assoc` are a single predicate check;
:func:`validations_performed` counts actual validations so tests can
assert the default path does zero validation work.

This module deliberately imports nothing from the rest of the package
except :mod:`repro.obs.metrics` — itself free of repro imports — so the
kernel layers can depend on it without cycles (everything validated is
duck-typed on ``rows``/``cols``/``vals``/``shape``).  When observability
is on alongside invariant checking, each hook-triggered validation also
increments the ``invariant_checks`` counter, so traces show how much
debug work a run performed.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator, TypeVar

import numpy as np

from ..obs.metrics import INVARIANT_CHECKS, inc
from .knobs import env_flag

__all__ = [
    "InvariantViolation",
    "add_construct_hook",
    "remove_construct_hook",
    "notify_construct",
    "invariants_enabled",
    "enable_invariants",
    "debug_invariants",
    "validations_performed",
    "reset_validation_count",
    "validate_matrix",
    "validate_vector",
    "validate_assoc",
    "validate_sorted",
    "check_matrix",
    "check_vector",
    "check_assoc",
    "check_sorted",
    "checked",
]

_ENV_FLAG = "REPRO_DEBUG_INVARIANTS"

_enabled: bool = env_flag(_ENV_FLAG)
_validation_count: int = 0

F = TypeVar("F", bound=Callable[..., Any])


#: Observers invoked as ``hook(kind, obj)`` whenever a kernel object
#: passes its construction check (kind: "matrix", "vector" or "assoc").
#: The sanitizer runtime (:mod:`repro.analysis.sanitize.mutate`) uses
#: this to freeze and fingerprint canonical buffers; hooks run even when
#: invariant validation itself is disabled, and the empty-list fast path
#: keeps unhooked construction free.
_construct_hooks: list = []


def add_construct_hook(hook: Callable[[str, Any], None]) -> None:
    """Register a construction observer (idempotent)."""
    if hook not in _construct_hooks:
        _construct_hooks.append(hook)


def remove_construct_hook(hook: Callable[[str, Any], None]) -> None:
    """Unregister a construction observer (missing hooks are ignored)."""
    try:
        _construct_hooks.remove(hook)
    except ValueError:
        pass


def notify_construct(kind: str, obj: Any) -> None:
    """Fire the construction observers for a non-kernel publication site.

    The snapshot boundary (:mod:`repro.serve.snapshot`) calls this when a
    snapshot is frozen for publication, so sanitizer hooks observe
    published objects exactly as they observe kernel constructions.
    """
    if _construct_hooks:
        for hook in _construct_hooks:
            hook(kind, obj)


class InvariantViolation(AssertionError):
    """A canonical-form invariant does not hold.

    Subclasses ``AssertionError``: a violation is a programming error in
    a kernel, never a data error — user input problems raise
    ``ValueError``/``TypeError`` at construction instead.
    """


def invariants_enabled() -> bool:
    """True when runtime invariant validation is active."""
    return _enabled


def enable_invariants(on: bool = True) -> None:
    """Switch runtime validation on or off for the whole process."""
    global _enabled
    _enabled = bool(on)


@contextmanager
def debug_invariants(on: bool = True) -> Iterator[None]:
    """Context manager scoping :func:`enable_invariants` to a block."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    try:
        yield
    finally:
        _enabled = prev


def validations_performed() -> int:
    """Number of full validations run since the last counter reset."""
    return _validation_count


def reset_validation_count() -> None:
    """Zero the validation counter (test isolation helper)."""
    global _validation_count
    _validation_count = 0


# -- validators (always run when called directly) ---------------------------


def _require(cond: bool, what: Any, detail: str) -> None:
    if not cond:
        raise InvariantViolation(f"{type(what).__name__} invariant violated: {detail}")


def validate_matrix(matrix: Any) -> Any:
    """Validate canonical sorted-COO form; returns the matrix.

    Checks, in order: dtype contract (``uint64`` coordinates, ``float64``
    values), shape agreement of the triple arrays, coordinates inside the
    matrix extent, and strictly increasing linearized ``(row, col)`` keys
    — which implies both sortedness and deduplication in one pass.
    """
    global _validation_count
    _validation_count += 1
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    _require(rows.dtype == np.uint64, matrix, f"rows dtype {rows.dtype} != uint64")
    _require(cols.dtype == np.uint64, matrix, f"cols dtype {cols.dtype} != uint64")
    _require(vals.dtype == np.float64, matrix, f"vals dtype {vals.dtype} != float64")
    _require(
        rows.shape == cols.shape == vals.shape and rows.ndim == 1,
        matrix,
        f"triple arrays disagree: rows {rows.shape}, cols {cols.shape}, vals {vals.shape}",
    )
    nrows, ncols = matrix.shape
    if rows.size:
        _require(
            int(rows.max()) < nrows and int(cols.max()) < ncols,
            matrix,
            f"coordinate outside shape {matrix.shape}",
        )
        keys = rows * np.uint64(ncols) + cols
        _require(
            bool(np.all(keys[1:] > keys[:-1])),
            matrix,
            "triples not in canonical order (unsorted or duplicated coordinates)",
        )
        # Matrices cache a packed-key view of the same canonical order
        # (duck-typed: absent on vectors/assocs).  If present it must
        # agree with rows/cols — the invariant the lazy dual
        # representation in repro.hypersparse.coo rests on.
        cached_keys = getattr(matrix, "_keys", None)
        if cached_keys is not None:
            _require(
                bool(np.array_equal(cached_keys, keys)),
                matrix,
                "cached packed-key view disagrees with rows/cols",
            )
    return matrix


def validate_vector(vec: Any) -> Any:
    """Validate a sparse vector: uint64 keys, float64 vals, sorted unique keys."""
    global _validation_count
    _validation_count += 1
    keys, vals = vec.keys, vec.vals
    _require(keys.dtype == np.uint64, vec, f"keys dtype {keys.dtype} != uint64")
    _require(vals.dtype == np.float64, vec, f"vals dtype {vals.dtype} != float64")
    _require(
        keys.shape == vals.shape and keys.ndim == 1,
        vec,
        f"keys {keys.shape} and vals {vals.shape} disagree",
    )
    if keys.size:
        _require(
            bool(np.all(keys[1:] > keys[:-1])),
            vec,
            "keys not strictly increasing (unsorted or duplicated)",
        )
    return vec


def validate_assoc(assoc: Any) -> Any:
    """Validate an associative array: sorted unique keys, coherent adjacency."""
    global _validation_count
    _validation_count += 1
    for name in ("row", "col"):
        arr = getattr(assoc, name)
        _require(arr.ndim == 1, assoc, f"{name} keys not 1-d")
        if arr.size > 1:
            _require(
                bool(np.all(arr[1:] > arr[:-1])),
                assoc,
                f"{name} keys not strictly increasing",
            )
    adj = assoc.adj
    validate_matrix(adj)
    _require(
        adj.shape[0] >= max(int(assoc.row.size), 1)
        and adj.shape[1] >= max(int(assoc.col.size), 1),
        assoc,
        f"adjacency shape {adj.shape} smaller than key space {assoc.shape}",
    )
    if assoc.val is not None and adj.nnz:
        codes = adj.vals
        _require(
            bool(np.all(codes >= 1.0)) and int(codes.max()) <= int(assoc.val.size),
            assoc,
            "string-value codes outside the value key table",
        )
    return assoc


def validate_sorted(keys: np.ndarray, what: str, *, strict: bool = False) -> np.ndarray:
    """Validate a 1-d key run is non-decreasing (``strict``: increasing).

    The precondition of the binary-search kernels in
    :mod:`repro.hypersparse.merge`: on an unsorted haystack they return
    wrong answers silently.  ``what`` names the run in the error.
    """
    global _validation_count
    _validation_count += 1
    if keys.size > 1:
        ok = keys[1:] > keys[:-1] if strict else keys[1:] >= keys[:-1]
        if not bool(np.all(ok)):
            order = "strictly increasing" if strict else "sorted"
            raise InvariantViolation(f"{what} invariant violated: keys not {order}")
    return keys


# -- hooks (single predicate check when disabled) ---------------------------


def check_matrix(matrix: Any) -> Any:
    """Validate ``matrix`` iff invariant checking is enabled."""
    if _enabled:
        validate_matrix(matrix)
        inc(INVARIANT_CHECKS)
    if _construct_hooks:
        for hook in _construct_hooks:
            hook("matrix", matrix)
    return matrix


def check_vector(vec: Any) -> Any:
    """Validate ``vec`` iff invariant checking is enabled."""
    if _enabled:
        validate_vector(vec)
        inc(INVARIANT_CHECKS)
    if _construct_hooks:
        for hook in _construct_hooks:
            hook("vector", vec)
    return vec


def check_assoc(assoc: Any) -> Any:
    """Validate ``assoc`` iff invariant checking is enabled."""
    if _enabled:
        validate_assoc(assoc)
        inc(INVARIANT_CHECKS)
    if _construct_hooks:
        for hook in _construct_hooks:
            hook("assoc", assoc)
    return assoc


def check_sorted(keys: np.ndarray, what: str, *, strict: bool = False) -> np.ndarray:
    """Validate ``keys`` with :func:`validate_sorted` iff checking is enabled."""
    if _enabled:
        validate_sorted(keys, what, strict=strict)
        inc(INVARIANT_CHECKS)
    return keys


_VALIDATORS = {
    "matrix": validate_matrix,
    "vector": validate_vector,
    "assoc": validate_assoc,
}


def checked(kind: str = "matrix") -> Callable[[F], F]:
    """Decorator validating a function's return value when debugging is on.

    ``kind`` selects the validator: ``"matrix"``, ``"vector"`` or
    ``"assoc"``.  With invariants disabled the wrapper is a single
    predicate test, so it is safe on hot-path kernels::

        @checked("vector")
        def mxv(matrix, vec, semiring=PLUS_TIMES): ...
    """
    try:
        validator = _VALIDATORS[kind]
    except KeyError:
        raise ValueError(f"unknown contract kind {kind!r}; known: {sorted(_VALIDATORS)}")

    def decorate(fn: F) -> F:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if _enabled and result is not None:
                validator(result)
                inc(INVARIANT_CHECKS)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate
