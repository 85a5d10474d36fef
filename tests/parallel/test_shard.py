"""Sharded out-of-core accumulation: order-determinism and exact folds."""

import numpy as np
import pytest

from repro.hypersparse import HyperSparseMatrix
from repro.hypersparse.spill import SpillStore
from repro.obs.metrics import (
    PEAK_RSS_BYTES,
    enable_metrics,
    gauge,
    metrics_enabled,
    reset_metrics,
)
from repro.parallel import sharded_accumulate, sum_archive, update_peak_rss
from repro.traffic import Packets, WindowArchive

SHAPE = (1 << 20, 1 << 20)


def chunk_matrix(seed):
    """Picklable worker: one deterministic canonical sub-matrix per seed."""
    rng = np.random.default_rng((77, seed))
    rows = rng.integers(0, SHAPE[0], 500)
    cols = rng.integers(0, SHAPE[1], 500)
    vals = rng.random(500)
    return HyperSparseMatrix(rows, cols, vals, shape=SHAPE)


def reference_total(items):
    total = HyperSparseMatrix.empty(SHAPE)
    for it in items:
        total = total.ewise_add(chunk_matrix(it))
    return total


def assert_bit_identical(a: HyperSparseMatrix, b: HyperSparseMatrix):
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.vals.view(np.uint64), b.vals.view(np.uint64))


class TestShardedAccumulate:
    ITEMS = list(range(24))

    def accumulate(self, **kwargs):
        acc = sharded_accumulate(
            chunk_matrix, self.ITEMS, shape=SHAPE, cutoff=256, **kwargs
        )
        try:
            return acc.total()
        finally:
            acc.close()

    def test_matches_flat_sum(self):
        got = self.accumulate(processes=1)
        ref = reference_total(self.ITEMS)
        assert got.nnz == ref.nnz
        assert np.array_equal(got.keys, ref.keys)
        assert np.allclose(got.vals, ref.vals)

    def test_independent_of_worker_count_and_wave(self):
        ref = self.accumulate(processes=1)
        assert_bit_identical(self.accumulate(processes=2), ref)
        assert_bit_identical(self.accumulate(processes=1, wave=5), ref)

    def test_budgeted_bit_identical(self):
        ref = self.accumulate(processes=1)
        assert_bit_identical(
            self.accumulate(processes=1, mem_budget=32 << 10), ref
        )

    def test_budget_engages(self):
        acc = sharded_accumulate(
            chunk_matrix,
            self.ITEMS,
            shape=SHAPE,
            cutoff=256,
            processes=1,
            mem_budget=32 << 10,
        )
        try:
            assert acc.spilled_levels > 0
            assert acc.mem_nbytes <= 32 << 10
        finally:
            acc.close()

    def test_caller_spill_store(self, tmp_path):
        with SpillStore(tmp_path / "shard") as store:
            acc = sharded_accumulate(
                chunk_matrix,
                self.ITEMS,
                shape=SHAPE,
                cutoff=256,
                processes=1,
                mem_budget=32 << 10,
                spill=store,
            )
            assert any((tmp_path / "shard").iterdir())
            acc.close()

    def test_empty_items(self):
        acc = sharded_accumulate(chunk_matrix, [], shape=SHAPE, cutoff=256)
        assert acc.total().nnz == 0

    def test_invalid_wave(self):
        with pytest.raises(ValueError):
            sharded_accumulate(
                chunk_matrix, self.ITEMS, shape=SHAPE, cutoff=256, wave=0
            )

    def test_default_wave_follows_repro_processes(self, monkeypatch):
        # The stream is sized by the same width the dispatch uses, so
        # REPRO_PROCESSES sets both.  One item keeps the run serial.
        from repro.obs.spans import take_spans, tracing

        monkeypatch.setenv("REPRO_PROCESSES", "3")
        with tracing(True):
            take_spans()
            acc = sharded_accumulate(chunk_matrix, [0], shape=SHAPE, cutoff=256)
            acc.close()
            spans = take_spans()
        [shard_span] = [s for s in spans if s.name == "sharded_accumulate"]
        assert shard_span.attrs["wave"] == 3

    def test_peak_rss_gauge_updates(self):
        was = metrics_enabled()
        enable_metrics(True)
        try:
            peak = update_peak_rss()
            assert peak > 0
            assert gauge(PEAK_RSS_BYTES).value == peak
        finally:
            enable_metrics(was)
            reset_metrics()


class TestSumArchive:
    @pytest.fixture()
    def archive(self, tmp_path, rng):
        arch = WindowArchive(tmp_path / "arch", n_valid=128)
        packets = Packets(
            np.sort(rng.uniform(0, 100, 1500)),
            rng.integers(0, 2**32, 1500),
            rng.integers(0, 2**24, 1500),
        )
        arch.append_packets(packets)
        assert len(arch) == 11
        return arch

    def test_matches_sum_windows(self, archive):
        ref = archive.sum_windows()
        for group in (3, 64):
            got = sum_archive(
                archive.root, n_valid=128, group=group, processes=1
            )
            assert np.array_equal(got.keys, ref.keys)
            # Integral packet counts: float64 addition is exact, so the
            # grouped association changes nothing — not even low bits.
            assert np.array_equal(
                got.vals.view(np.uint64), ref.vals.view(np.uint64)
            )

    def test_budgeted_matches(self, archive):
        ref = archive.sum_windows()
        got = sum_archive(
            archive.root,
            n_valid=128,
            group=2,
            processes=1,
            cutoff=64,
            mem_budget=16 << 10,
        )
        assert np.array_equal(got.keys, ref.keys)
        assert np.array_equal(got.vals.view(np.uint64), ref.vals.view(np.uint64))

    def test_parallel_groups_match_serial(self, archive):
        serial = sum_archive(archive.root, n_valid=128, group=2, processes=1)
        parallel = sum_archive(archive.root, n_valid=128, group=2, processes=2)
        assert np.array_equal(serial.keys, parallel.keys)
        assert np.array_equal(
            serial.vals.view(np.uint64), parallel.vals.view(np.uint64)
        )

    def test_index_subset(self, archive):
        ref = archive.sum_windows([0, 3, 5])
        got = sum_archive(
            archive.root, n_valid=128, indices=[0, 3, 5], group=2, processes=1
        )
        assert np.array_equal(got.keys, ref.keys)

    def test_empty_archive(self, tmp_path):
        WindowArchive(tmp_path / "empty", n_valid=128)
        got = sum_archive(tmp_path / "empty", n_valid=128)
        assert got.nnz == 0

    def test_invalid_group(self, archive):
        with pytest.raises(ValueError):
            sum_archive(archive.root, n_valid=128, group=0)
