"""Each sanitizer: traps its seeded violation, stays silent on clean runs."""

import numpy as np
import pytest

from repro.analysis.sanitize import fixtures as probes
from repro.analysis.sanitize import mutate
from repro.analysis.sanitize.runtime import (
    disarm,
    sanitizers,
    take_traps,
)


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    take_traps()
    yield
    disarm()
    take_traps()


def traps_by_rule():
    out = {}
    for trap in take_traps():
        out.setdefault(trap.rule_id, []).append(trap)
    return out


class TestOverflowSanitizer:
    def test_traps_overflowing_pack(self):
        with sanitizers(["overflow"]):
            probes.probe_overflow()
        by_rule = traps_by_rule()
        assert "RS001" in by_rule
        [trap] = by_rule["RS001"]
        assert "fixtures.py" in trap.path  # anchored at the faulting call

    def test_silent_on_domain_sized_inputs(self):
        from repro.hypersparse import HyperSparseMatrix

        with sanitizers(["overflow"]):
            m = HyperSparseMatrix(
                np.array([0, 2**32 - 1], dtype=np.uint64),
                np.array([2**32 - 1, 0], dtype=np.uint64),
                np.array([1.0, 2.0]),
                shape=(2**32, 2**32),
            )
            assert m.nnz == 2
        assert take_traps() == []


class TestMutateSanitizer:
    def test_freezes_buffers_at_construction(self):
        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            v = SparseVec(
                np.array([1, 5], dtype=np.uint64), np.array([1.0, 2.0])
            )
            assert not v.vals.flags.writeable
            with pytest.raises(ValueError):
                v.vals[0] = 9.0
        assert take_traps() == []

    def test_verify_frozen_catches_thawed_write(self):
        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            v = SparseVec(
                np.array([1, 5], dtype=np.uint64), np.array([1.0, 2.0])
            )
            v.vals.flags.writeable = True  # adversarial thaw
            v.vals[0] = 9.0
            assert mutate.verify_frozen() == 1
        by_rule = traps_by_rule()
        assert "RS002" in by_rule
        assert "vector" in by_rule["RS002"][0].message

    def test_verify_frozen_clean_construction(self):
        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            SparseVec(np.array([3], dtype=np.uint64), np.array([4.0]))
            assert mutate.verify_frozen() == 0
        assert take_traps() == []


class TestForkSanitizer:
    def test_traps_worker_that_mutates_its_input(self):
        with sanitizers(["fork"]):
            probes.probe_fork_mutation()
        by_rule = traps_by_rule()
        assert "RS003" in by_rule
        assert "mutated" in by_rule["RS003"][0].message

    def test_silent_on_well_behaved_workers(self):
        from repro.parallel.pool import parallel_map

        with sanitizers(["fork"]):
            out = parallel_map(abs, [-1, 2, -3, 4], processes=1)
        assert out == [1, 2, 3, 4]
        assert take_traps() == []

    def test_traps_mutation_through_streaming_map(self):
        # parallel_imap (the sharded accumulator's dispatch) is checked
        # with the same fingerprints; the write lands in a forked worker.
        from repro.hypersparse.coo import SparseVec
        from repro.parallel import pool

        vecs = [
            SparseVec(np.array([1, 2, 3], dtype=np.uint64), np.ones(3))
            for _ in range(4)
        ]
        with sanitizers(["fork"]):
            out = list(pool.parallel_imap(probes._mutating_worker, vecs, processes=2))
        assert out == [4.0] * 4  # each worker saw its own bumped copy
        by_rule = traps_by_rule()
        assert "RS003" in by_rule
        assert "parallel_imap" in by_rule["RS003"][0].message

    def test_streaming_map_silent_on_well_behaved_workers(self):
        from repro.parallel import pool

        with sanitizers(["fork"]):
            out = list(pool.parallel_imap(abs, [-1, 2, -3, 4], processes=2))
        assert out == [1, 2, 3, 4]
        assert take_traps() == []


class TestFloatSanitizer:
    def test_traps_nan_escaping_fit(self):
        with sanitizers(["float"]):
            probes.probe_nan_fit()
        by_rule = traps_by_rule()
        assert "RS004" in by_rule
        assert "fit_temporal" in by_rule["RS004"][0].message

    def test_silent_on_finite_fit(self):
        from repro.fits.fitting import fit_temporal

        t = np.linspace(-3.0, 3.0, 31)
        y = np.exp(-(t**2) / 2.0)
        with sanitizers(["float"]):
            fit = fit_temporal(t, y, t0=0.0)
        assert np.isfinite(fit.loss)
        assert take_traps() == []


class TestShmSanitizer:
    def test_traps_mutation_and_double_release(self):
        from repro.parallel import shm as transport

        with sanitizers(["shm"]):
            probes.probe_shm()
        by_rule = traps_by_rule()
        assert "RS005" in by_rule
        msgs = [t.message for t in by_rule["RS005"]]
        assert any("changed between export and release" in m for m in msgs)
        assert any("lifecycle fault" in m for m in msgs)
        # The probe still destroyed its segment exactly once.
        assert transport.active_segments() == []

    def test_verify_released_traps_leaked_segment(self):
        from repro.analysis.sanitize import shm as shm_san
        from repro.parallel import shm as transport
        from repro.hypersparse import HyperSparseMatrix

        matrix = HyperSparseMatrix(
            np.array([1], dtype=np.uint64),
            np.array([2], dtype=np.uint64),
            np.array([1.0]),
            shape=(2**32, 2**32),
        )
        with sanitizers(["shm"]):
            handle = transport.export_matrix(matrix)
            assert shm_san.verify_released() == 1
            transport.release(handle)
            assert shm_san.verify_released() == 0
        by_rule = traps_by_rule()
        assert any("still alive at end of run" in t.message for t in by_rule["RS005"])

    def test_verify_released_silent_when_disarmed(self):
        from repro.analysis.sanitize import shm as shm_san

        assert shm_san.verify_released() == 0
        assert take_traps() == []

    def test_silent_on_clean_dispatch(self):
        from repro.parallel import shm as transport
        from repro.hypersparse import HyperSparseMatrix

        matrix = HyperSparseMatrix(
            np.array([5], dtype=np.uint64),
            np.array([6], dtype=np.uint64),
            np.array([2.0]),
            shape=(2**32, 2**32),
        )
        with sanitizers(["shm"]):
            handle = transport.export_matrix(matrix)
            out = transport.import_matrix(handle)
            assert out.nnz == matrix.nnz
            del out
            transport.release(handle)
        assert take_traps() == []


class TestAllTogether:
    def test_all_armed_probe_suite_hits_every_rule(self):
        with sanitizers(["overflow", "mutate", "fork", "float", "shm"]):
            for probe in probes.PROBES.values():
                probe()
            mutate.verify_frozen()
        rules = set(traps_by_rule())
        assert {"RS001", "RS003", "RS004", "RS005"} <= rules
