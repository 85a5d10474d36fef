"""The ``figures`` workload: the researcher's ``repro all`` at N_V = 2^18.

One pass builds a fresh study (the memo and pools are dropped first),
starts the worker pool, then runs all 18 experiments, ``run()`` and
``checks()``.  Passes repeat until the run's time is spent.  The study
always uses the default seed, because the digest reference is recorded
for it; ``--seed`` picks which Fig 6 curves the overlap oracle re-derives.

Correctness, per experiment (one operation each):

* every paper-claim check passes, except the wall-clock verdict
  :data:`TIMING_CLAIM`, which is a timing and not a result;
* a digest of the experiment's numeric outputs equals the one recorded
  in ``reference.json`` (timing fields :data:`TIMING_FIELDS` excluded);
* for fig6, a seeded sample of curves matches fractions recomputed with
  Python ``set`` intersection, exactly.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
import statistics
import struct
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import EXPERIMENTS, build_study, default_config
from repro.parallel import get_pool

from . import common, layers

LOG2_NV = 18
REFERENCE = Path(__file__).with_name("reference.json")
TIMING_CLAIM = "hierarchical accumulation beats flat re-canonicalization"
TIMING_FIELDS = frozenset({"direct_seconds", "sharded_seconds", "hier_seconds", "flat_seconds"})
ORACLE_CURVES = 4
#: Per-experiment medians need three samples to shed one slow pass.
MIN_PASSES = 3


# -- digest ---------------------------------------------------------------------


def _feed(h, obj) -> None:
    """Hash ``obj``'s value structure; floats by their exact bits."""
    if obj is None or isinstance(obj, (bool, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, enum.Enum):
        h.update(f"enum:{obj.name}".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        if obj.dtype == object:
            for item in obj.ravel():
                _feed(h, item)
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name not in TIMING_FIELDS:
                h.update(f.name.encode())
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif hasattr(obj, "__slots__") or hasattr(obj, "__dict__"):
        h.update(type(obj).__name__.encode())
        names = sorted(
            set(getattr(obj, "__slots__", ())) | set(getattr(obj, "__dict__", {}))
        )
        for name in names:
            if not name.startswith("_") and name not in TIMING_FIELDS:
                h.update(name.encode())
                _feed(h, getattr(obj, name))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(result) -> str:
    """SHA-256 of an experiment result's numeric outputs."""
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


def reference_key(log2_nv: int, seed: int) -> str:
    return f"log2_nv={log2_nv},seed={seed}"


def load_reference(log2_nv: int, seed: int) -> Optional[Dict[str, str]]:
    """Recorded per-experiment digests for this configuration, if any."""
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(reference_key(log2_nv, seed))


# -- overlap oracle ---------------------------------------------------------------


def oracle_problems(study, fig6_result, rng: random.Random, k: int = ORACLE_CURVES) -> List[str]:
    """Re-derive sampled Fig 6 curves with Python sets; list mismatches."""
    keys = sorted(fig6_result.curves)
    if not keys:
        return ["fig6: no curves for the overlap oracle"]
    months = [set(m.tolist()) for m in study.monthly_sources]
    problems = []
    for si, label in rng.sample(keys, min(k, len(keys))):
        curve, _ = fig6_result.curves[(si, label)]
        sp = study.telescope_sources(si)
        lo, hi = curve.bin.lo, curve.bin.hi
        tel = {key for key, val in zip(sp.keys.tolist(), sp.vals.tolist()) if lo <= val < hi}
        expected = [len(tel & month) / len(tel) for month in months] if tel else [0.0] * len(months)
        if curve.fractions.tolist() != expected:
            problems.append(f"fig6: overlap oracle mismatch at sample {si} bin {label}")
    return problems


# -- workload ---------------------------------------------------------------------


def perturb_overlap(result):
    """Injected fault for the self-test: nudge one overlap fraction."""
    (curve, _), *_ = [result.curves[k] for k in sorted(result.curves)]
    curve.fractions[0] = np.nextafter(curve.fractions[0], 2.0)
    return result


def _pass(
    config,
    reference: Optional[Dict[str, str]],
    rng: random.Random,
    outcome: common.Outcome,
    times: Dict[str, List[float]],
    inject: Optional[Callable] = None,
) -> Tuple[float, float]:
    """One fresh study plus every experiment: setup seconds and peak MiB."""
    common.fresh_state()
    with common.PeakRss() as rss:
        setup = _experiments(config, reference, rng, outcome, times, inject)
    common.fresh_state()
    return setup, rss.peak_mb


def _experiments(config, reference, rng, outcome, times, inject) -> float:
    t0 = time.perf_counter()
    study = build_study(config)
    _ = (study.samples, study.months, study.monthly_sources)  # collect the data now
    get_pool()
    setup = time.perf_counter() - t0
    for name, module in EXPERIMENTS.items():
        t0 = time.perf_counter()
        result = module.run(study)
        checks = result.checks()
        times.setdefault(name, []).append(time.perf_counter() - t0)
        if inject is not None and name == "fig6":
            result = inject(result)
        problems = [
            f"{name}: check failed: {c.claim}"
            for c in checks
            if not c.ok and c.claim != TIMING_CLAIM
        ]
        if reference is not None and reference.get(name) != digest(result):
            problems.append(f"{name}: digest differs from the recorded reference")
        if name == "fig6":
            problems += oracle_problems(study, result, rng)
        outcome.record(problems)
    return setup


def run(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    log2_nv: int = LOG2_NV,
    inject: Optional[Callable] = None,
) -> common.Report:
    """Measure ``figures`` for ``seconds``; see the module docstring."""
    if tuple(EXPERIMENTS) != layers.EXPERIMENT_NAMES:
        raise RuntimeError("experiment set differs from the benchmark's catalogue")
    config = default_config(log2_nv=log2_nv)
    reference = load_reference(log2_nv, config.seed)
    rng = random.Random(seed)
    outcome = common.Outcome()
    times: Dict[str, List[float]] = {}
    setups: List[float] = []
    peaks: List[float] = []
    start = time.perf_counter()

    def spent() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / max(len(setups), 1) > seconds

    def one_pass(pass_times: Dict[str, List[float]]) -> None:
        setup, peak = _pass(config, reference, rng, outcome, pass_times, inject)
        setups.append(setup)
        peaks.append(peak)

    if trace:
        one_pass(times)  # untraced baseline for the overhead estimate
        baseline = _figures_s(times)
        tracer = layers.LayerTracer()
        tracer.install()
        layers.reset_obs_counters(True)
        traced_times: Dict[str, List[float]] = {}
        try:
            while True:
                tracer.run_root(lambda: one_pass(traced_times))
                if spent():
                    break
            counters = layers.obs_counters()
        finally:
            layers.reset_obs_counters(False)
            tracer.uninstall()
        values = dict(counters)
        values.update(
            {
                f"experiments.{name}_s": statistics.median(v)
                for name, v in traced_times.items()
            }
        )
        values["trace.overhead_frac"] = _figures_s(traced_times) / baseline - 1.0
        metrics = layers.per_layer_report(tracer, values)
    else:
        while True:
            one_pass(times)
            if len(setups) >= MIN_PASSES and spent():
                break
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "result_s": (_figures_s(times), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MiB"),
        }
    slowest = sorted(times, key=lambda n: -statistics.median(times[n]))[:4]
    summary = [
        f"figures: {len(setups)} passes, figures_s {_figures_s(times):.3f} s "
        f"(sum of per-experiment medians), setup_s median {statistics.median(setups):.3f} s",
        "slowest: "
        + ", ".join(f"{n} {statistics.median(times[n]):.3f} s" for n in slowest),
        f"digest reference: {'recorded' if reference else 'none for this configuration'}",
    ]
    params = {"log2_nv": log2_nv, "study_seed": config.seed, "passes": len(setups)}
    return common.Report(metrics, outcome, params, summary)


def _figures_s(times: Dict[str, Sequence[float]]) -> float:
    """Time to reproduce every table and figure: sum of per-experiment medians."""
    return sum(statistics.median(v) for v in times.values())


def record_reference(log2_nv: int = LOG2_NV) -> Dict[str, str]:
    """Run every experiment once at the default seed; store the digests."""
    config = default_config(log2_nv=log2_nv)
    common.fresh_state()
    study = build_study(config)
    digests = {name: digest(module.run(study)) for name, module in EXPERIMENTS.items()}
    common.fresh_state()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[reference_key(log2_nv, config.seed)] = digests
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return digests
