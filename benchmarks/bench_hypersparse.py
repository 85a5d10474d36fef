"""Performance benchmarks for the hypersparse substrate (paper §II).

The paper's pipeline rests on streaming inserts into hierarchical
hypersparse matrices (refs [34]-[35] report 75e9 inserts/s on a
supercomputer; here we measure the laptop-scale pure-NumPy equivalent) and
on the Table II reductions.  ``--benchmark-only`` reports packets/s via
the ops/sec column (one op == one batch of BATCH packets).
"""

import numpy as np
import pytest

from repro.hypersparse import HierarchicalMatrix, HyperSparseMatrix

BATCH = 1 << 17  # the telescope's archived matrix granularity
N_BATCHES = 16
SPACE = (2**32, 2**32)


@pytest.fixture(scope="module")
def batches():
    rng = np.random.default_rng(0)
    return [
        (
            rng.integers(0, 2**32, BATCH, dtype=np.uint64),
            rng.integers(0, 2**32, BATCH, dtype=np.uint64),
        )
        for _ in range(N_BATCHES)
    ]


@pytest.fixture(scope="module")
def window_matrix(batches):
    acc = HierarchicalMatrix(shape=SPACE, cutoff=1 << 16)
    for src, dst in batches:
        acc.insert(src, dst)
    return acc.total()


def test_hierarchical_insert_throughput(benchmark, batches):
    """Streaming accumulation of 2^17-packet batches (hierarchical)."""

    def run():
        acc = HierarchicalMatrix(shape=SPACE, cutoff=1 << 16)
        for src, dst in batches:
            acc.insert(src, dst)
        return acc.total()

    total = benchmark(run)
    assert total.total() == BATCH * N_BATCHES


def test_flat_insert_throughput(benchmark, batches):
    """The ablation baseline: re-canonicalize the total on every batch."""

    def run():
        flat = HyperSparseMatrix.empty(SPACE)
        for src, dst in batches:
            flat = flat.ewise_add(HyperSparseMatrix(src, dst, shape=SPACE))
        return flat

    total = benchmark(run)
    assert total.total() == BATCH * N_BATCHES


def test_single_window_construction(benchmark, batches):
    """One-shot construction of a full window's matrix."""
    src = np.concatenate([s for s, _ in batches])
    dst = np.concatenate([d for _, d in batches])
    m = benchmark(HyperSparseMatrix, src, dst)
    assert m.total() == src.size


def test_table2_reductions(benchmark, window_matrix):
    """All Table II aggregates of a window matrix."""
    from repro.traffic.quantities import network_quantities

    q = benchmark(network_quantities, window_matrix)
    assert q.valid_packets == BATCH * N_BATCHES


def test_ewise_add(benchmark, window_matrix):
    out = benchmark(window_matrix.ewise_add, window_matrix)
    assert out.total() == 2 * window_matrix.total()


@pytest.fixture(scope="module")
def sliding_windows(batches):
    """Two distinct 2^20-packet windows that share half their batches."""
    per_window = N_BATCHES // 2

    def window(part):
        src = np.concatenate([s for s, _ in part])
        dst = np.concatenate([d for _, d in part])
        return HyperSparseMatrix(src, dst, shape=SPACE)

    return (
        window(batches[:per_window]),
        window(batches[per_window // 2 : per_window // 2 + per_window]),
    )


def test_ewise_add_two_windows(benchmark, sliding_windows):
    """Sum two distinct windows through the two-run merge kernel.

    ``test_ewise_add`` adds a window to itself, which takes the
    identical-keys shortcut and never reaches the kernel; here half the
    keys match and half pass through from one side.
    """
    a, b = sliding_windows
    out = benchmark(a.ewise_add, b)
    assert out.total() == a.total() + b.total()
    assert a.nnz < out.nnz < a.nnz + b.nnz


def test_zero_norm(benchmark, window_matrix):
    out = benchmark(window_matrix.zero_norm)
    assert out.nnz == window_matrix.nnz


def test_mxm_square(benchmark):
    """Semiring matmul on a dense-ish small graph (correlation workloads)."""
    rng = np.random.default_rng(1)
    n = 20_000
    a = HyperSparseMatrix(
        rng.integers(0, 2000, n), rng.integers(0, 2000, n), shape=(2000, 2000)
    )
    out = benchmark(a.mxm, a)
    assert out.nnz > 0
