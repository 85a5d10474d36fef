"""The ``serve`` workload: the streaming correlation service under load.

The run is split into :data:`SESSIONS` sessions, each with fresh state.
A session's set-up generates its packet stream and honeyfarm months from
``--seed`` (``repro.serve.cli``'s counter-mode generators), creates a
:class:`~repro.serve.engine.CorrelationEngine`, folds the 15 months and
publishes epoch 1, and starts the loop's executor, capped at two threads.

Then, open loop on a fixed schedule:

* one writer folds a packet batch whenever one is due (``RATE_PPS``
  packets per second in ``BATCH``-packet batches) and publishes on every
  closed window of ``N_VALID`` packets.  Each publish re-intersects the
  latest window with every month.  Freshness is timed from when the
  batch that closed the window was due until the publish returns;
* ``READERS`` reader coroutines each lease a snapshot ``READ_RATE``
  times per second, timed from when the read was due.

Correctness: every leased snapshot's latest window has
``valid_packets == N_VALID``, epochs never go backwards per reader, a
read misses no later than ``READ_LIMIT_S``, every publish carries the
window that closed, and no lease is outstanding at close.
"""

from __future__ import annotations

import asyncio
import dataclasses
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from repro.serve.aio import AsyncCorrelationService
from repro.serve.cli import synthetic_batch, synthetic_month
from repro.serve.engine import CorrelationEngine

from . import common, layers

N_VALID = 1 << 13
ADDRESS_POOL = 50_000
MONTHS = 15
RATE_PPS = 20_000
BATCH = 1024
READERS = 2
READ_RATE = 25.0
READ_LIMIT_S = 1.0
EXECUTOR_THREADS = 2
SESSIONS = 3


@dataclasses.dataclass
class Session:
    """One session's samples."""

    fresh_s: List[float] = dataclasses.field(default_factory=list)
    read_s: List[float] = dataclasses.field(default_factory=list)
    writer_late_s: float = 0.0
    peak_mb: float = 0.0


def setup(seed: int, session: int, duration: float, n_valid: int, pool: int):
    """Generate a session's stream and months; build and prime the engine."""
    n_batches = int(duration * RATE_PPS / BATCH) + 1
    first = session * n_batches
    batches = [synthetic_batch(seed, first + k, BATCH, pool) for k in range(n_batches)]
    engine = CorrelationEngine(n_valid)
    for m in range(MONTHS):
        engine.fold_month(float(m), synthetic_month(seed, m, pool))
    engine.publish()
    executor = ThreadPoolExecutor(max_workers=EXECUTOR_THREADS)
    return engine, batches, executor


async def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def _session(
    engine: CorrelationEngine,
    batches,
    executor: ThreadPoolExecutor,
    duration: float,
    outcome: common.Outcome,
    samples: Session,
    inject: Optional[Callable] = None,
) -> None:
    asyncio.get_running_loop().set_default_executor(executor)
    service = AsyncCorrelationService(engine)
    n_valid = engine.n_valid
    t0 = time.perf_counter()
    end = t0 + duration

    async def writer() -> None:
        for k, batch in enumerate(batches):
            due = t0 + (k + 1) * BATCH / RATE_PPS
            if due > end:
                break
            await _sleep_until(due)
            samples.writer_late_s = max(samples.writer_late_s, time.perf_counter() - due)
            closed = await service.fold_batch(batch)
            if closed:
                snap = await service.publish()
                samples.fresh_s.append(time.perf_counter() - due)
                latest = snap.quantities[-1] if snap.window_count else None
                outcome.record(
                    []
                    if snap.window_count == engine.window_count
                    and latest is not None
                    and latest.valid_packets == n_valid
                    else [f"publish epoch {snap.epoch} lacks the window that closed"]
                )

    async def reader(r: int) -> None:
        last_epoch = 0
        j = 0
        while True:
            due = t0 + (j + r / READERS) / READ_RATE
            if due > end:
                return
            j += 1
            await _sleep_until(due)
            snap = await service.snapshot()
            try:
                seen = inject(snap) if inject is not None else snap
                latency = time.perf_counter() - due
                problems = []
                if seen.window_count and seen.quantities[-1].valid_packets != n_valid:
                    problems.append(f"snapshot epoch {seen.epoch}: valid_packets != N_V")
                if seen.epoch < last_epoch:
                    problems.append(f"reader {r}: epoch {seen.epoch} after {last_epoch}")
                if latency > READ_LIMIT_S:
                    problems.append(f"reader {r}: read took {latency:.3f} s")
                last_epoch = max(last_epoch, seen.epoch)
            finally:
                await service.release(snap)
            samples.read_s.append(latency)
            outcome.record(problems)

    await asyncio.gather(writer(), *(reader(r) for r in range(READERS)))
    leaked = engine.outstanding_leases()
    await service.close()
    outcome.record([f"{leaked} snapshot lease(s) outstanding at close"] if leaked else [])


def _one_session(
    seed: int,
    index: int,
    duration: float,
    n_valid: int,
    pool: int,
    outcome: common.Outcome,
    setups: List[float],
    inject: Optional[Callable],
) -> Session:
    samples = Session()
    with common.PeakRss() as rss:
        t0 = time.perf_counter()
        engine, batches, executor = setup(seed, index, duration, n_valid, pool)
        setups.append(time.perf_counter() - t0)
        try:
            asyncio.run(
                _session(
                    engine, batches, executor, duration - setups[-1], outcome, samples, inject
                )
            )
        finally:
            executor.shutdown(wait=True)
            engine.close()
    samples.peak_mb = rss.peak_mb
    return samples


def run(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n_valid: int = N_VALID,
    pool: int = ADDRESS_POOL,
    inject: Optional[Callable] = None,
) -> common.Report:
    """Measure ``serve`` for ``seconds``; see the module docstring."""
    outcome = common.Outcome()
    setups: List[float] = []
    duration = seconds / SESSIONS
    sessions: List[Session] = []
    for index in range(1 if trace else SESSIONS):
        sessions.append(
            _one_session(seed, index, duration, n_valid, pool, outcome, setups, inject)
        )
    fresh = [x for s in sessions for x in s.fresh_s]
    reads = [x for s in sessions for x in s.read_s]
    if trace:
        # The first session above was the untraced baseline.
        tracer = layers.LayerTracer()
        tracer.install()
        layers.reset_obs_counters(True)
        traced: List[Session] = []
        try:
            for index in range(1, SESSIONS):
                traced.append(
                    tracer.run_root(
                        lambda i=index: _one_session(
                            seed, i, duration, n_valid, pool, outcome, setups, inject
                        )
                    )
                )
            values = layers.obs_counters()
        finally:
            layers.reset_obs_counters(False)
            tracer.uninstall()
        totals = tracer.totals()
        engine_fn = "repro.serve.engine.CorrelationEngine."
        traced_fresh = [x for s in traced for x in s.fresh_s]
        traced_reads = [x for s in traced for x in s.read_s]
        values.update(
            {
                "serve.fold_s": totals["fn_total_s"].get(engine_fn + "fold_batch", 0.0),
                "serve.publish_s": totals["fn_total_s"].get(engine_fn + "publish", 0.0),
                "serve.publishes": totals["fn_calls"].get(engine_fn + "publish", 0.0),
                "serve.acquire_wait_s": totals["fn_total_s"].get(engine_fn + "acquire", 0.0),
                "serve.fresh_tail_ms": 1e3
                * common.quantile(traced_fresh, common.tail_level(len(traced_fresh))),
                "serve.read_p99_ms": 1e3 * common.quantile(traced_reads, 0.99),
                "trace.overhead_frac": statistics.median(traced_fresh)
                / statistics.median(fresh)
                - 1.0,
            }
        )
        metrics = layers.per_layer_report(tracer, values)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "result_s": (statistics.median(fresh), "s"),
            "peak_rss_mb": (statistics.median(s.peak_mb for s in sessions), "MiB"),
        }
    summary = [
        f"serve: {len(sessions)} untraced sessions, {len(fresh)} publishes, {len(reads)} reads",
        common.describe("serve_fresh", fresh, "ms", 1e3),
        common.describe("serve_read", reads, "ms", 1e3),
        f"writer ran at most {1e3 * max(s.writer_late_s for s in sessions):.2f} ms late",
        f"setup_s median {statistics.median(setups):.4f} s",
    ]
    params: Dict[str, object] = {
        "n_valid": n_valid,
        "address_pool": pool,
        "months": MONTHS,
        "rate_pps": RATE_PPS,
        "batch": BATCH,
        "readers": READERS,
        "read_rate_per_reader": READ_RATE,
        "read_limit_s": READ_LIMIT_S,
        "executor_threads": EXECUTOR_THREADS,
        "sessions": SESSIONS,
    }
    return common.Report(metrics, outcome, params, summary)
