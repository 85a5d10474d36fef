"""Counter-based pseudorandomness shared across the package.

Two consumers need *stateless*, vectorized randomness:

* the CryptoPAN-style anonymizer (a keyed PRF per prefix-tree level);
* the synthetic Internet's activity model, where "is source ``s`` active in
  month ``m``?" must be answerable in any order, for any subset of sources,
  without storing an (n_sources x n_months) table.

Both are built on the splitmix64 finalizer — a well-studied 64-bit
avalanche mixer (Steele et al.) — keyed by XOR-ing a seed and the counter
coordinates through large odd constants.
"""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64", "hash_u64", "hash_uniform", "hash_bernoulli"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: Distinct odd multipliers decorrelating the counter coordinates.
_COORD_MULTIPLIERS = (
    np.uint64(0xD6E8FEB86659FD93),
    np.uint64(0xA5A5A5A5A5A5A5A5 | 1),
    np.uint64(0x9E3779B97F4A7C15),
    np.uint64(0xC2B2AE3D27D4EB4F),
)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer applied element-wise to uint64 input.

    Wraparound multiplication is the point of the mixer; the errstate guard
    silences NumPy's scalar-overflow warning on 0-d inputs.  The first step
    allocates the output and every later step works on it in place, so the
    caller's array is never written.
    """
    with np.errstate(over="ignore"):
        z = np.add(np.asarray(x, dtype=np.uint64), _GOLDEN)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z


def hash_u64(seed: int, *coords) -> np.ndarray:
    """Deterministic uint64 hash of (seed, coord_0, coord_1, ...).

    Coordinates may be scalars or broadcastable integer arrays; the result
    has the broadcast shape.  Changing any coordinate (or the seed)
    decorrelates the output — counter-mode randomness.
    """
    if len(coords) > len(_COORD_MULTIPLIERS):
        raise ValueError(f"at most {len(_COORD_MULTIPLIERS)} counter coordinates")
    acc = np.uint64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    out = None
    with np.errstate(over="ignore"):
        for mult, coord in zip(_COORD_MULTIPLIERS, coords):
            term = (np.asarray(coord, dtype=np.uint64) * mult).astype(np.uint64)
            out = term if out is None else (out ^ term)
        if out is None:
            out = np.zeros((), dtype=np.uint64)
        out = out ^ acc
    return splitmix64(out)


def hash_uniform(seed: int, *coords) -> np.ndarray:
    """Deterministic uniform(0, 1) floats from counter coordinates."""
    return hash_u64(seed, *coords).astype(np.float64) / float(2**64)


def hash_bernoulli(prob, seed: int, *coords) -> np.ndarray:
    """Deterministic Bernoulli draws: True with the given probability.

    ``prob`` broadcasts against the coordinates, so per-element
    probabilities (e.g. per-source activity) are natural.
    """
    return hash_uniform(seed, *coords) < np.asarray(prob, dtype=np.float64)
