"""The ``assembly`` workload: paper-scale window construction (Sec. II).

Each pass drops the pools, builds the scaling-regime population of the
default ``log2_nv = 20`` study (the one ``repro scaling`` sweeps) and
starts the default-width pool; that is the pass's set-up.  It then
assembles windows of N_V = 2^23 packets, as many as fit in the pass's
share of the run, with
``experiments.scaling.assemble_window`` under a 64 MiB budget (the
spill ladder spills to disk) and counts each window's unique rows by
streaming the collapsed run from disk.  ``--seed`` draws the windows'
times within :data:`MONTH`, the month ``repro scaling`` samples, so
every seed's windows share one month's active sources and cost about the
same.

Correctness, per window (one operation each): the unique rows equal the
number of emitting sources ``window_source_counts`` draws for that
window once legitimate addresses are filtered out.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import replace
from typing import Callable, List, Optional

import numpy as np

from repro.experiments import default_config
from repro.experiments.scaling import assemble_window
from repro.hypersparse.spill import unique_rows_of_run
from repro.parallel import get_pool
from repro.synth import SourcePopulation, TelescopeSimulator

from . import common, layers

POPULATION_LOG2_NV = 20
LOG2_WINDOW = 23
MEM_BUDGET = 64 << 20
#: Untraced passes per run, each with its own set-up; windows fill each
#: pass's share of the run time.
PASSES = 2
MONTH = 4


def population_config(log2_nv: int):
    """The scaling experiment's population (rate exponent 1.5, 4x sources)."""
    base = default_config(log2_nv=log2_nv)
    return replace(base, zm_alpha=1.5, n_sources=4 * base.n_sources, seed=base.seed ^ 0x5CA1E)


def assemble_and_count(
    telescope, month_time: float, n_valid: int, processes: Optional[int] = None
) -> int:
    """One window: budgeted assembly, collapse to disk, streamed row count."""
    acc = assemble_window(
        telescope, month_time, n_valid=n_valid, processes=processes, mem_budget=MEM_BUDGET
    )
    try:
        run_file = acc.collapse_to_disk()
        try:
            return unique_rows_of_run(run_file)
        finally:
            run_file.path.unlink(missing_ok=True)
    finally:
        acc.close()


def expected_rows(telescope, month_time: float, n_valid: int) -> tuple:
    """Emitting sources after the legit-address filter, and their packets."""
    spec = telescope.window_source_counts(month_time, n_valid=n_valid)
    keep = ~np.isin(spec.addresses, telescope.population.legit_addresses)
    return int(np.count_nonzero(keep)), int(spec.counts[keep].sum())


def run(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    population_log2_nv: int = POPULATION_LOG2_NV,
    log2_window: int = LOG2_WINDOW,
    inject: Optional[Callable[[int], int]] = None,
) -> common.Report:
    """Measure ``assembly`` for ``seconds``; see the module docstring."""
    config = population_config(population_log2_nv)
    n_valid = 1 << log2_window
    rng = random.Random(seed)
    outcome = common.Outcome()
    setups: List[float] = []
    window_s: List[float] = []
    rates: List[float] = []
    peaks: List[float] = []
    start = time.perf_counter()

    def one_pass(deadline: float, window_times: List[float], rate_list: List[float]) -> None:
        """Set up, then assemble windows until the next would pass ``deadline``."""
        common.fresh_state()
        t0 = time.perf_counter()
        telescope = TelescopeSimulator(SourcePopulation(config))
        get_pool()
        setups.append(time.perf_counter() - t0)
        while True:
            month_time = round(MONTH + rng.uniform(0.05, 0.95), 3)
            with common.PeakRss() as rss:
                t0 = time.perf_counter()
                rows = assemble_and_count(telescope, month_time, n_valid)
                dt = time.perf_counter() - t0
            peaks.append(rss.peak_mb)
            window_times.append(dt)
            want, packets = expected_rows(telescope, month_time, n_valid)
            rate_list.append(packets / dt)
            if inject is not None:
                rows = inject(rows)
            outcome.record(
                []
                if rows == want
                else [f"window at month {month_time}: {rows} unique rows, expected {want}"]
            )
            if time.perf_counter() + dt > deadline:
                break
        common.fresh_state()

    if trace:
        # Thirds: untraced baseline, traced pass, single-process baseline.
        one_pass(start + seconds / 3, window_s, rates)
        tracer = layers.LayerTracer()
        tracer.install()
        layers.reset_obs_counters(True)
        traced_s: List[float] = []
        try:
            tracer.run_root(lambda: one_pass(start + 2 * seconds / 3, traced_s, []))
            values = layers.obs_counters()
        finally:
            layers.reset_obs_counters(False)
            tracer.uninstall()
        telescope = TelescopeSimulator(SourcePopulation(config))
        month_time = round(MONTH + rng.uniform(0.05, 0.95), 3)
        t0 = time.perf_counter()
        assemble_and_count(telescope, month_time, n_valid, processes=1)
        values["parallel.serial_pps"] = expected_rows(telescope, month_time, n_valid)[1] / (
            time.perf_counter() - t0
        )
        values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(
            window_s
        ) - 1.0
        metrics = layers.per_layer_report(tracer, values)
    else:
        for k in range(1, PASSES + 1):
            one_pass(start + seconds * k / PASSES, window_s, rates)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "result_s": (statistics.median(window_s), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MiB"),
        }
    summary = [
        f"assembly: {len(setups)} passes, {len(window_s)} untraced windows of 2^{log2_window}",
        common.describe("window_s", window_s, "s"),
        f"assembly_pps: median {statistics.median(rates):.0f} packets/s",
        f"setup_s median {statistics.median(setups):.3f} s",
        common.describe("peak_rss_mb per window", peaks, "MiB"),
    ]
    params = {
        "population_log2_nv": population_log2_nv,
        "log2_window": log2_window,
        "mem_budget_bytes": MEM_BUDGET,
        "passes": PASSES,
    }
    return common.Report(metrics, outcome, params, summary)
