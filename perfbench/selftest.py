"""Tests of the benchmark itself, at reduced sizes.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
The file name keeps it out of the repository's own test collection.

They check that every metric ``BENCHMARK.json`` names is reported with
its unit, and that each workload's correctness gate fails when a wrong
result is injected: one perturbed overlap fraction, one wrong unique
count, one bad snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import assembly, common, figures, serving  # noqa: E402
from perfbench.run import result  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small configurations: seconds are tiny, so each runs its minimum passes.
SMALL = {
    "figures": lambda trace, inject=None: figures.run(
        3, 0.1, trace, log2_nv=16, inject=inject
    ),
    "assembly": lambda trace, inject=None: assembly.run(
        3, 0.1, trace, population_log2_nv=16, log2_window=18, inject=inject
    ),
    "serve": lambda trace, inject=None: serving.run(
        3, 1.5, trace, n_valid=1 << 11, pool=8000, inject=inject
    ),
}


@pytest.fixture(autouse=True)
def _fresh():
    yield
    common.fresh_state()


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_prints_with_its_unit(workload, trace):
    out = json.loads(json.dumps(result(SMALL[workload](trace))))
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["attempted"] >= 1
    assert out["failed"] == 0, out
    assert out["correct"] is True


def test_perturbed_overlap_fraction_fails_figures():
    report = SMALL["figures"](False, inject=figures.perturb_overlap)
    assert report.outcome.failed >= 1
    assert any("overlap oracle" in r for r in report.outcome.reasons)


def test_digest_catches_a_changed_output():
    ref = {"fig6": "0" * 64}
    outcome = common.Outcome()
    config = figures.default_config(log2_nv=14)
    figures._pass(config, ref, random.Random(0), outcome, {})
    assert any("fig6: digest differs" in r for r in outcome.reasons)


def test_wrong_unique_count_fails_assembly():
    report = SMALL["assembly"](False, inject=lambda rows: rows + 1)
    assert report.outcome.failed == report.outcome.attempted >= 1
    assert all("unique rows" in r for r in report.outcome.reasons)


def test_bad_snapshot_fails_serve():
    state = {"done": False}

    def bad_once(snap):
        if state["done"] or not snap.window_count:
            return snap
        state["done"] = True
        q = dataclasses.replace(snap.quantities[-1], valid_packets=snap.n_valid - 1)
        return dataclasses.replace(snap, quantities=snap.quantities[:-1] + (q,))

    report = SMALL["serve"](False, inject=bad_once)
    assert state["done"]
    assert report.outcome.failed == 1
    assert "valid_packets" in report.outcome.reasons[0]


def _run_cli(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_refuses_a_knob_that_changes_the_program():
    env = dict(os.environ, REPRO_SHM="1")
    proc = _run_cli(ROOT, env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_cli(bare, dict(os.environ))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    assert proc.returncode != 0
    assert proc.stdout == ""
