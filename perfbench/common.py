"""Shared pieces of the benchmark: outcomes, percentiles, memory, fresh state.

Nothing here imports ``repro`` at module level except through
:func:`fresh_state`, so ``run.py`` can refuse a bad environment before
the measured program is loaded.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import math
import os
import statistics
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: Percentile ladder; a timing reports the highest rung that still has at
#: least ``TAIL_MIN_BEYOND`` samples above it.
PERCENTILES = (0.5, 0.9, 0.99, 0.999)
TAIL_MIN_BEYOND = 10


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> None:
        """Count one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)


@dataclass
class Report:
    """What a workload hands back to ``run.py``."""

    metrics: Dict[str, Tuple[float, str]]
    outcome: Outcome
    params: Dict[str, object]
    summary: List[str]


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_level(n: int) -> float:
    """Highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond it."""
    best = PERCENTILES[0]
    for q in PERCENTILES:
        if n * (1.0 - q) >= TAIL_MIN_BEYOND:
            best = q
    return best


def describe(name: str, values: Sequence[float], unit: str, scale: float = 1.0) -> str:
    """One summary line: median, highest supported percentile, sample count."""
    q = tail_level(len(values))
    p50 = statistics.median(values) * scale
    tail = quantile(values, q) * scale
    line = f"{name}: p50 {p50:.4f} {unit}"
    if q > 0.5:
        line += f", p{q * 100:g} {tail:.4f} {unit}"
    return line + f" (n={len(values)})"


class PeakRss:
    """Context manager: the highest RSS of this process while it is open, MiB.

    A daemon thread samples ``/proc/self/statm`` every ``interval``
    seconds, so each pass gets its own peak (``ru_maxrss`` only ever
    grows, so it would report the worst pass of the run).  Pool workers
    are forked copy-on-write children and are not included, matching
    ``repro.parallel.update_peak_rss``.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _read(self) -> float:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * _PAGE / 2**20

    def _sample(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, self._read())
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakRss":
        self.peak_mb = self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, self._read())


_PAGE = os.sysconf("SC_PAGE_SIZE")


def fresh_state() -> None:
    """Drop every piece of state that would carry from one pass to the next.

    The ``build_study`` memo and the persistent worker pools both outlive
    a call by design; a timed pass must pay for them again.  Freed heap
    is handed back to the OS too, so each pass's peak RSS starts from
    the same floor instead of the previous pass's leftovers.
    """
    from repro.experiments import common as experiments_common
    from repro.parallel import shutdown_pools

    shutdown_pools()
    experiments_common._STUDIES.clear()
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _libc():
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        return libc
    except (OSError, AttributeError):
        return None  # not glibc: no trim, peaks may carry over between passes


_LIBC = _libc()


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker the pools started, and wait.

    ``repro.parallel.get_pool`` starts it before forking workers; it
    otherwise lingers until interpreter exit.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
