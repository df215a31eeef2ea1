"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload with one tiny job, untraced and traced, and checks
that each metric BENCHMARK.json names comes out with its unit; checks that
set-up writes byte-identical instances for the same seed and different
ones for another seed; and checks that the benchmark fails, without a
result line, in a directory that holds only the benchmark.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, set_up_once


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_metrics(work: Path) -> None:
    declared = run.declared_metrics()
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            metrics, jobs, _, _ = run.measure(workload, 0, 0, trace, work, tiny=True)
            if len(jobs) != 1 + trace or any(j.error for j in jobs):
                fail(f"{name} trace {trace}: jobs {[(j.cell.label, j.error) for j in jobs]}")
            for metric, unit in declared[trace].items():
                if metric not in metrics:
                    fail(f"{name} trace {trace}: metric {metric} missing")
                if metrics[metric][1] != unit:
                    fail(f"{name} trace {trace}: {metric} in {metrics[metric][1]}, not {unit}")
            # slots opened, as worked out from the probe spans, must match
            # the schedules that were written
            opened = sum(j.slots for j in jobs if j.traced)
            if trace and metrics["multischedule.slots_opened"][0] != opened:
                fail(f"{name}: slots_opened {metrics['multischedule.slots_opened'][0]} != {opened}")
        print(f"ok   {name}: every metric present with its unit")


def instance_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_inputs(work: Path) -> None:
    for name, workload in WORKLOADS.items():
        runs = []
        for i, seed in enumerate((7, 7, 8)):
            set_up_once(workload, seed, work / f"in{i}")
            runs.append(instance_bytes(work / f"in{i}"))
        if runs[0] != runs[1]:
            fail(f"{name}: the same seed gave different instance files")
        if list(runs[0].values()) == list(runs[2].values()):
            fail(f"{name}: different seeds gave the same instance files")
        print(f"ok   {name}: {len(runs[0])} instance files byte-identical for one seed")


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    command = json.loads((bare / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in command]
        + ["--workload", next(iter(WORKLOADS)), "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok   bare directory: exit {proc.returncode}, no result line")


def main() -> int:
    if not run.use_sources():
        return 2
    work = run.OUT / f"smoke-{os.getpid()}"
    try:
        check_metrics(work)
        check_inputs(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
