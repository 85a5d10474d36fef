"""Streaming pool map: item order, bounded in-flight work, clean exits."""

import time
from pathlib import Path

import pytest

from repro.parallel import pool as pool_mod
from repro.parallel.pool import parallel_imap, shutdown_pools


def square(x):
    return x * x


def slow_inverse(args):
    """Later items finish first: item ``i`` of ``n`` sleeps ``n - i`` ticks."""
    i, n = args
    time.sleep(0.02 * (n - i))
    return i


def marking_worker(args):
    """Item 0 fails at once; every other item marks its completion on disk."""
    i, root = args
    if i == 0:
        raise ValueError("task 0 failed")
    time.sleep(0.3)
    (Path(root) / str(i)).touch()
    return i


class FakeResult:
    def __init__(self, pool, value):
        self.pool = pool
        self.value = value

    def get(self):
        self.pool.outstanding -= 1
        return self.value

    def wait(self):
        pass


class FakePool:
    """Runs tasks at submission; counts submitted-but-uncollected ones."""

    def __init__(self):
        self.outstanding = 0
        self.peak = 0

    def apply_async(self, fn, args):
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        return FakeResult(self, fn(*args))


@pytest.fixture
def fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


def test_yields_in_item_order_when_completion_is_scrambled(fresh_pools):
    n = 8
    got = list(parallel_imap(slow_inverse, [(i, n) for i in range(n)], processes=2, wave=4))
    assert got == list(range(n))


@pytest.mark.parametrize("wave", [1, 2, 3])
def test_never_more_than_wave_outstanding(monkeypatch, wave):
    fake = FakePool()
    monkeypatch.setattr(pool_mod, "get_pool", lambda n: fake)
    got = []
    for result in parallel_imap(square, range(7), processes=2, wave=wave):
        # The consumer holds ``result``; with it, no more than ``wave``
        # results exist that the consumer has not finished with.
        assert fake.outstanding + 1 <= wave
        got.append(result)
    assert got == [x * x for x in range(7)]
    assert fake.peak == wave


def test_default_wave_is_pool_width(monkeypatch):
    fake = FakePool()
    monkeypatch.setattr(pool_mod, "get_pool", lambda n: fake)
    assert list(parallel_imap(square, range(9), processes=3)) == [x * x for x in range(9)]
    assert fake.peak == 3


def test_worker_error_propagates_after_draining(tmp_path, fresh_pools):
    items = [(i, str(tmp_path)) for i in range(6)]
    with pytest.raises(ValueError, match="task 0 failed"):
        list(parallel_imap(marking_worker, items, processes=2, wave=2))
    # Task 1 was in flight when task 0's error surfaced: it has finished
    # before the error reached the caller.  Task 2 was never submitted.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["1"]
    # The pool survives a failed stream and serves the next call.
    assert list(parallel_imap(square, range(5), processes=2)) == [0, 1, 4, 9, 16]


def test_early_close_drains_outstanding_tasks(tmp_path, fresh_pools):
    items = [(i, str(tmp_path)) for i in range(1, 6)]
    stream = parallel_imap(marking_worker, items, processes=2, wave=2)
    assert next(stream) == 1
    stream.close()
    # Task 2 was outstanding when the consumer stopped; nothing later ran.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["1", "2"]


def test_close_after_pool_shutdown_returns(fresh_pools):
    # A terminated pool never completes its pending tasks, so closing a
    # stream whose pool was shut down must not wait for them.
    import threading

    stream = parallel_imap(time.sleep, [0.0, 5.0, 0.0], processes=2, wave=2)
    assert next(stream) is None
    shutdown_pools()  # the 5 s task is still running
    closer = threading.Thread(target=stream.close, daemon=True)
    closer.start()
    closer.join(timeout=2)
    assert not closer.is_alive()


def test_env_zero_is_lazy_serial(monkeypatch):
    def no_pool(n):
        raise AssertionError("REPRO_PROCESSES=0 must not start a pool")

    monkeypatch.setenv("REPRO_PROCESSES", "0")
    monkeypatch.setattr(pool_mod, "get_pool", no_pool)
    calls = []

    def record(x):
        calls.append(x)
        return x * x

    stream = parallel_imap(record, [1, 2, 3])
    assert calls == []
    assert next(stream) == 1
    assert calls == [1]
    assert list(stream) == [4, 9]
    assert calls == [1, 2, 3]


def test_single_item_runs_serially(monkeypatch):
    monkeypatch.setattr(pool_mod, "get_pool", lambda n: pytest.fail("pool for one item"))
    assert list(parallel_imap(square, [7], processes=2)) == [49]


def test_empty():
    assert list(parallel_imap(square, [], processes=2)) == []


def test_nonpositive_wave_rejected():
    with pytest.raises(ValueError, match="wave"):
        next(parallel_imap(square, [1, 2], processes=2, wave=0))


def test_worker_spans_reingested(fresh_pools):
    from repro.obs.spans import span, take_spans, tracing

    with tracing(True):
        take_spans()
        with span("consumer"):
            got = list(parallel_imap(square, range(5), processes=2))
        spans = take_spans()
    assert got == [0, 1, 4, 9, 16]
    consumer = next(s for s in spans if s.name == "consumer")
    tasks = [s for s in spans if s.name == "pool_task"]
    assert len(tasks) == 5
    assert all(t.parent_id == consumer.span_id for t in tasks)
