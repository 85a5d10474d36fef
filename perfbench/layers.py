"""Per-layer tracing from outside the program.

The benchmark adds no spans to ``src/``: :class:`LayerTracer` wraps the
public entry points of every pipeline layer (each module's ``__all__``
functions, and the public methods of its ``__all__`` classes) and
rebinds every reference to them in the loaded ``repro`` modules, so each
call site records a span.  A span's *self* time is its duration minus
the spans it encloses; self times therefore partition the traced wall
time, and what no layer claims is the root's own time (the unattributed
remainder).

Coroutine functions are left alone: spans of interleaved coroutines on
one thread do not nest.  The serve layer is measured through the
synchronous engine methods its executor threads call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = (
    "synth",
    "d4m",
    "anonymize",
    "traffic",
    "hypersparse",
    "parallel",
    "stats",
    "fits",
    "core",
    "stream",
    "serve",
    "experiments",
)


def _overlap_temporal(bound, result) -> int:
    months = bound.arguments["monthly_sources"]
    n = result.n_sources
    return sum(n + len(m) for m in months) if n else 0


def _overlap_peak(bound, result) -> int:
    return len(bound.arguments["source_packets"].keys) + len(
        bound.arguments["honeyfarm_sources"]
    )


def _overlap_sources(bound, result) -> int:
    return len(bound.arguments["telescope_sources"]) + len(bound.arguments["honeyfarm_sources"])


def _overlap_prefixes(bound, result) -> int:
    return result.n_a + result.n_b


def _pool_items(bound, result) -> int:
    items = bound.arguments["items"]
    return len(items) if hasattr(items, "__len__") else 0


#: Work counters measured from a call's arguments and result, keyed by
#: the wrapped function's qualified name.  Counting at the API keeps the
#: counts independent of how each function computes its overlap.
COUNTERS: Dict[str, tuple] = {
    "repro.core.temporal.temporal_correlation": ("core.overlap_elems", _overlap_temporal),
    "repro.core.correlation.peak_correlation": ("core.overlap_elems", _overlap_peak),
    "repro.core.correlation.source_overlap": ("core.overlap_elems", _overlap_sources),
    "repro.core.subnet.subnet_overlap": ("core.overlap_elems", _overlap_prefixes),
    "repro.parallel.pool.parallel_map": ("parallel.items", _pool_items),
}


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class _ThreadStats:
    """One thread's aggregates; merged when the tracer reports."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.fn_calls: Dict[str, int] = defaultdict(int)
        self.fn_total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)


class LayerTracer:
    """Wraps layer entry points; aggregates calls, self time and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadStats] = []
        self._wrapped: Dict[int, Callable] = {}
        self._classes: set = set()
        self._undo: List[Callable[[], None]] = []
        self.root_self_s = 0.0
        self.root_wall_s = 0.0

    # -- recording -----------------------------------------------------------

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        key = f"{fn.__module__}.{fn.__qualname__}"
        counter = COUNTERS.get(key)
        signature = inspect.signature(fn) if counter else None
        stats_of = self._stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stats_of()
            frame = _Frame()
            st.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1].child += dur
                st.calls[layer] += 1
                st.self_s[layer] += dur - frame.child
                st.fn_calls[key] += 1
                st.fn_total_s[key] += dur
            if counter is not None:
                name, measure = counter
                st.counts[name] += measure(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def run_root(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` under a root span; its self time is the unattributed rest."""
        st = self._stats()
        frame = _Frame()
        st.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dur = time.perf_counter() - t0
            st.stack.pop()
            self.root_wall_s += dur
            self.root_self_s += dur - frame.child

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Import every layer module, wrap its entry points, rebind references."""
        originals: Dict[int, Callable] = {}
        for layer in LAYERS:
            for module in _layer_modules(layer):
                for name in getattr(module, "__all__", ()):
                    obj = getattr(module, name, None)
                    if _defined_in(obj, layer):
                        if inspect.isclass(obj):
                            self._wrap_class(obj, layer)
                        elif inspect.isfunction(obj) and not inspect.iscoroutinefunction(obj):
                            if id(obj) not in self._wrapped:
                                self._wrapped[id(obj)] = self._wrap(obj, layer)
                                originals[id(obj)] = obj
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith(("repro.", "perfbench."))):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None and originals.get(id(value)) is value:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, value))

    def _wrap_class(self, cls: type, layer: str) -> None:
        if cls in self._classes:
            return  # re-exported by the package as well as its module
        self._classes.add(cls)
        is_record = hasattr(cls, "__dataclass_fields__")
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and (attr != "__init__" or is_record):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if inspect.iscoroutinefunction(inner):
                    continue
                replacement = type(value)(self._wrap(inner, layer))
            elif isinstance(value, functools.cached_property):
                original_func = value.func
                value.func = self._wrap(original_func, layer)
                self._undo.append(functools.partial(setattr, value, "func", original_func))
                continue
            elif inspect.isfunction(value) and not inspect.iscoroutinefunction(value):
                replacement = self._wrap(value, layer)
            else:
                continue
            setattr(cls, attr, replacement)
            self._undo.append(functools.partial(setattr, cls, attr, value))

    def uninstall(self) -> None:
        """Restore every rebound reference."""
        while self._undo:
            self._undo.pop()()
        self._wrapped.clear()
        self._classes.clear()

    # -- reporting ---------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Merged per-layer, per-function and counter totals over all threads."""
        out: Dict[str, Dict[str, float]] = {
            "calls": defaultdict(float),
            "self_s": defaultdict(float),
            "fn_calls": defaultdict(float),
            "fn_total_s": defaultdict(float),
            "counts": defaultdict(float),
        }
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for kind in out:
                for key, value in getattr(st, kind).items():
                    out[kind][key] += value
        return out


def _layer_modules(layer: str) -> List[object]:
    """Every importable module of ``repro.<layer>`` (optional ones may fail)."""
    package = importlib.import_module(f"repro.{layer}")
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError:
            continue  # an optional backend whose dependency is absent
    return modules


def _defined_in(obj: object, layer: str) -> bool:
    module: Optional[str] = getattr(obj, "__module__", None)
    prefix = f"repro.{layer}"
    return module is not None and (module == prefix or module.startswith(prefix + "."))


#: The experiments reported as ``experiments.<name>_s`` (``repro all`` order).
EXPERIMENT_NAMES = (
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "scaling",
    "spectrum",
    "subnets",
    "vantage",
    "consistency",
    "prediction",
    "generative",
    "ablation",
)


def catalogue() -> List[tuple]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    rows: List[tuple] = []
    for layer in LAYERS:
        rows.append((f"{layer}.calls", "count", "lower"))
        rows.append((f"{layer}.self_s", "s", "lower"))
    rows += [(f"experiments.{name}_s", "s", "lower") for name in EXPERIMENT_NAMES]
    rows += [
        ("core.overlap_elems", "count", "lower"),
        ("hypersparse.nnz", "count", "lower"),
        ("hypersparse.merge_fastpath_ratio", "ratio", "higher"),
        ("hypersparse.merge_fastpath_base", "count", "lower"),
        ("hypersparse.spills", "count", "lower"),
        ("hypersparse.spill_bytes", "B", "lower"),
        ("traffic.packets", "count", "higher"),
        ("parallel.items", "count", "lower"),
        ("parallel.serial_pps", "1/s", "higher"),
        ("serve.fold_s", "s", "lower"),
        ("serve.publish_s", "s", "lower"),
        ("serve.publishes", "count", "higher"),
        ("serve.acquire_wait_s", "s", "lower"),
        ("serve.fresh_tail_ms", "ms", "lower"),
        ("serve.read_p99_ms", "ms", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return rows


def obs_counters() -> Dict[str, float]:
    """The ``repro.obs`` counters the benchmark reports, under layer names."""
    from repro.obs import metrics

    hits = metrics.counter_value(metrics.MERGE_FASTPATH_HITS)
    base = hits + metrics.counter_value(metrics.MERGE_FASTPATH_MISSES)
    return {
        "hypersparse.nnz": metrics.counter_value(metrics.MATRIX_NNZ),
        "hypersparse.merge_fastpath_ratio": hits / base if base else 0.0,
        "hypersparse.merge_fastpath_base": base,
        "hypersparse.spills": metrics.counter_value(metrics.SHARD_SPILLS),
        "hypersparse.spill_bytes": metrics.counter_value(metrics.SHARD_SPILL_BYTES),
        "traffic.packets": metrics.counter_value(metrics.PACKETS_INGESTED),
    }


def reset_obs_counters(on: bool) -> None:
    """Zero the ``repro.obs`` registry and switch counting on or off."""
    from repro.obs import metrics

    metrics.reset_metrics()
    metrics.enable_metrics(on)


def per_layer_report(
    tracer: LayerTracer, values: Dict[str, float]
) -> Dict[str, tuple]:
    """Every catalogue metric: measured layer totals, ``values``, else 0."""
    totals = tracer.totals()
    merged: Dict[str, float] = dict(totals["counts"])
    for layer in LAYERS:
        merged[f"{layer}.calls"] = totals["calls"].get(layer, 0)
        merged[f"{layer}.self_s"] = totals["self_s"].get(layer, 0.0)
    merged["trace.unattributed_s"] = tracer.root_self_s
    merged["trace.unattributed_frac"] = (
        tracer.root_self_s / tracer.root_wall_s if tracer.root_wall_s else 0.0
    )
    merged.update(values)
    return {name: (float(merged.get(name, 0.0)), unit) for name, unit, _ in catalogue()}
