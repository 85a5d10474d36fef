"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload figures|assembly|serve \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that reports the per-layer metrics.
Before the result the run prints a manifest line and a few summary
lines; the last line of standard output is the result object.  Exit
status: 0 with a result, 1 if the workload raised, 2 if the run was
refused (a ``REPRO_*`` variable that changes the program is set, or the
program's sources are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Variables that change the measured program; the run refuses to report
#: numbers while any is set.
REFUSED = (
    "REPRO_TRACE",
    "REPRO_TRACE_MEM",
    "REPRO_METRICS",
    "REPRO_PROFILE",
    "REPRO_SAN",
    "REPRO_DEBUG_INVARIANTS",
    "REPRO_SHM",
    "REPRO_BACKEND",
    "REPRO_PROCESSES",
    "REPRO_MEM_BUDGET",
    "REPRO_LOG2_NV",
    "REPRO_SOURCES",
    "REPRO_SEED",
)

WORKLOADS = ("figures", "assembly", "serve")


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = root / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


def manifest(args, params) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    refused = [k for k in REFUSED if os.environ.get(k)]
    if refused:
        print(f"refusing to measure: {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    # Temporary windows, spill runs and the like stay inside the checkout.
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        from perfbench import assembly, common, figures, serving

        module = {"figures": figures, "assembly": assembly, "serve": serving}[args.workload]
        try:
            report = module.run(args.seed, args.seconds, bool(args.trace))
        finally:
            common.fresh_state()
            common.stop_resource_tracker()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    print("manifest: " + json.dumps(manifest(args, report.params), sort_keys=True))
    for line in report.summary:
        print(line)
    for reason in report.outcome.reasons[:20]:
        print(f"FAILED: {reason}")
    print(json.dumps(result(report)))
    return 0


def result(report) -> dict:
    """The result object printed as the run's last line."""
    return {
        "correct": report.outcome.failed == 0,
        "attempted": report.outcome.attempted,
        "failed": report.outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
