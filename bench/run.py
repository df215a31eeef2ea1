"""End-to-end benchmark of fraysched's user path.

    python3 bench/run.py --workload families --seed 0 --seconds 35 --trace 0

Run from the repository root.  Each job calls `fraysched.cli.main`
in-process, first `schedule INSTANCE --strategy S --out F --native-dir D`
and then `validate INSTANCE F`, one job after another (a closed loop with
one client).  The jobs' outputs are checked, and the last line of stdout
is one JSON object with the metrics that BENCHMARK.json names: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1; the
end-to-end times are rescaled to a reference host speed (hostspeed.py).
The full record, and with --trace 1 the spans, go to .bench_out/results/.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from hostspeed import probe, rescale  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import HELD_OUT_SEEDS, WORKLOADS, Cell, set_up  # noqa: E402


@dataclass
class Job:
    cell: Cell
    traced: bool
    probe_s: float  # hostspeed.probe() just before the job
    synth_s: float
    check_s: Optional[float]
    slots: Optional[int] = None
    sha256: Optional[str] = None
    error: Optional[str] = None


def _invoke(main, argv, tracer):
    if tracer is None:
        return main(argv)
    idx = tracer.open(ROOT_SPAN)
    try:
        return main(argv)
    finally:
        tracer.close(idx)


def run_job(cli, cell: Cell, work: Path, tracer: Optional[Tracer] = None) -> Job:
    """One schedule + validate pair, timed call by call, then checked."""
    sched = work / "schedule.json"
    natives = work / "natives"
    shutil.rmtree(natives, ignore_errors=True)
    sched.unlink(missing_ok=True)
    # start every job from a collected heap, as a fresh CLI process would,
    # so that earlier jobs' garbage does not land in this job's time
    gc.collect()
    probe_s = probe()
    argvs = (
        ["schedule", str(cell.path), "--strategy", cell.strategy,
         "--out", str(sched), "--native-dir", str(natives)],
        ["validate", str(cell.path), str(sched)],
    )
    sink = io.StringIO()
    times, codes, error = [], [], None
    with redirect_stdout(sink), redirect_stderr(sink):
        for argv in argvs:
            t0 = time.perf_counter()
            try:
                code = _invoke(cli.main, argv, tracer)
            except (Exception, SystemExit):  # a crash fails the job, the run goes on
                code, error = None, traceback.format_exc(limit=4)
            times.append(time.perf_counter() - t0)
            codes.append(code)
            if code != 0:
                break
    job = Job(cell, tracer is not None, probe_s, times[0], times[1] if len(times) > 1 else None)
    if error is None and codes != [0, 0]:
        error = f"exit codes {codes}: {sink.getvalue()[-400:]}"
    if error is None:
        try:
            error = check_outputs(job, sched, natives)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    job.error = error
    return job


def check_outputs(job: Job, sched: Path, natives: Path) -> Optional[str]:
    """The per-job gate: one native per variant, each a projection of the
    multischedule onto exactly that variant's signals."""
    raw = sched.read_bytes()
    job.sha256 = hashlib.sha256(raw).hexdigest()
    doc = json.loads(raw)
    job.slots = len(doc["slots"])
    where = {
        p["signal"]: (slot["index"], p["first_cycle"], p["offset_bits"])
        for slot in doc["slots"]
        for p in slot["placements"]
    }
    variants = job.cell.variants
    names = [f"variant{j:02d}.json" for j in range(len(variants))]
    found = sorted(p.name for p in natives.iterdir()) if natives.is_dir() else []
    if found != sorted(names):
        return f"native files {found[:3]}... ({len(found)}) != one per variant ({len(names)})"
    for j, name in enumerate(names):
        native = json.loads((natives / name).read_text(encoding="utf-8"))
        seen = set()
        for slot in native["slots"]:
            for p in slot["placements"]:
                if where.get(p["signal"]) != (slot["index"], p["first_cycle"], p["offset_bits"]):
                    return f"variant {j}: {p['signal']} is not where the multischedule has it"
                seen.add(p["signal"])
        if native.get("variant") != j or seen != variants[j]:
            return f"variant {j}: native holds {len(seen)} signals, the variant has {len(variants[j])}"
    return None


def check_determinism(jobs: list[Job]) -> None:
    """Every run of a cell must write the same schedule document."""
    first = {}
    for job in jobs:
        if job.error is None:
            digest = first.setdefault(job.cell.index, job.sha256)
            if job.sha256 != digest:
                job.error = "schedule differs from an earlier run of the same cell"


def run_untraced(cli, cells, work, seconds):
    """Closed loop over whole passes of the cells, so that every cell weighs
    the same.  A pass starts only if it should end within `seconds`,
    judging by the pass before; the first pass always runs."""
    jobs = []
    start = time.perf_counter()
    pass_s = 0.0
    while not jobs or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        jobs.extend(run_job(cli, cell, work) for cell in cells)
        pass_s = time.perf_counter() - t0
    return jobs, time.perf_counter() - start


def run_traced(modules, cells, work, seconds):
    """Each cell runs untraced and traced, in alternating order, so that the
    tracing overhead is measured on the same inputs."""
    tracer = Tracer(modules)
    jobs = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.job = len(jobs)
                tracer.install()
            try:
                jobs.append(run_job(modules["cli"], cells[i % len(cells)], work,
                                    tracer if traced else None))
            finally:
                tracer.uninstall()
        i += 1
    return jobs, tracer, time.perf_counter() - start


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * pct / 100)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(jobs, cells, workload, setup_times):
    """End-to-end metrics, and the percentile and sample count of each tail.

    Times are rescaled to the reference host (see hostspeed.py); the
    `wall.` metrics are the same figures as measured.
    """
    ok = [j for j in jobs if j.error is None]
    out = {
        "setup_s": (statistics.median(rescale(t, p) for t, p in setup_times), "s"),
        "wall.setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "host.probe_s": (statistics.median(j.probe_s for j in jobs), "s"),
    }
    tails = {}
    if ok:
        for key in ("synth_s", "check_s"):
            values = [rescale(getattr(j, key), j.probe_s) for j in ok]
            tail, beyond = nearest_rank(values, workload.tail_pct)
            out[f"{key}.p50"] = (statistics.median(values), "s")
            out[f"{key}.tail"] = (tail, "s")
            out[f"wall.{key}.p50"] = (statistics.median(getattr(j, key) for j in ok), "s")
            tails[key] = {"percentile": workload.tail_pct, "samples": len(values),
                          "beyond_tail": beyond}
        signals = sum(j.cell.signals for j in ok)
        busy = sum(j.synth_s + j.check_s for j in ok)
        out["signals_per_s"] = (signals / sum(rescale(j.synth_s + j.check_s, j.probe_s)
                                              for j in ok), "1/s")
        out["wall.signals_per_s"] = (signals / busy, "1/s")
    slots = {}
    for j in ok:
        slots.setdefault(j.cell.index, j.slots)
    if len(slots) == len(cells):
        out["slots_total"] = (sum(slots.values()), "count")
    out["failed_frac"] = (sum(j.error is not None for j in jobs) / len(jobs), "frac")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out, tails


def per_layer(jobs, tracer):
    traced = {i for i, j in enumerate(jobs) if j.traced and j.error is None}
    plain = [rescale(j.synth_s, j.probe_s) for j in jobs if not j.traced and j.error is None]
    job_time = sum(jobs[i].synth_s + jobs[i].check_s for i in traced)
    out = layer_metrics(tracer.spans, tracer.missing, job_time, traced)
    if traced and plain:
        ratio = (statistics.median(rescale(jobs[i].synth_s, jobs[i].probe_s) for i in traced)
                 / statistics.median(plain))
        out["trace.overhead_frac"] = (ratio - 1.0, "frac")
    return out


def git_commit(root: Path) -> Optional[str]:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fraysched").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_set": "held-out" if args.seed in HELD_OUT_SEEDS else "tuning",
        "held_out_seeds": list(HELD_OUT_SEEDS),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure(workload, seed, seconds, trace, work, tiny=False):
    """Set up, run and measure one workload.

    Returns (metrics, jobs, record, tracer); tracer is None without trace.
    """
    modules, cells, setup_times = set_up(workload, seed, work / "in", tiny)
    tails = {}
    tracer = None
    if trace:
        jobs, tracer, elapsed = run_traced(modules, cells, work, seconds)
    else:
        jobs, elapsed = run_untraced(modules["cli"], cells, work, seconds)
    check_determinism(jobs)
    if trace:
        metrics = per_layer(jobs, tracer)
    else:
        metrics, tails = end_to_end(jobs, cells, workload, setup_times)
    record = {
        "instance_seeds": sorted({c.instance_seed for c in cells}),
        "setup": [{"wall_s": t, "probe_s": p} for t, p in setup_times],
        "elapsed_s": elapsed,
        "tails": tails,
        "cells": {c.label: {"signals": c.signals} for c in cells},
        "jobs": [
            {"cell": j.cell.label, "traced": j.traced, "probe_s": j.probe_s,
             "synth_s": j.synth_s, "check_s": j.check_s, "slots": j.slots, "sha256": j.sha256,
             "error": j.error}
            for j in jobs
        ],
    }
    for j in jobs:
        if j.error is None:
            record["cells"][j.cell.label].update(slots=j.slots, sha256=j.sha256)
    if trace:
        record["missing_hooks"] = tracer.missing
    return metrics, jobs, record, tracer


def use_sources() -> bool:
    """Put the checkout's src/ first on the import path, if it is there."""
    if not (SRC / "fraysched" / "cli.py").is_file():
        print(f"error: no fraysched sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    declared = declared_metrics()[args.trace]

    work = OUT / f"work-{os.getpid()}"
    try:
        metrics, jobs, record, tracer = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
        record["environment"] = environment(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    failed = sum(j.error is not None for j in jobs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  failed {failed}  elapsed {record['elapsed_s']:.1f} s")
    for key in ("synth_s", "check_s"):
        if key in record["tails"]:
            t = record["tails"][key]
            print(f"  {key}.tail is p{t['percentile']:g} of {t['samples']} samples, "
                  f"{t['beyond_tail']} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for j in jobs:
        if j.error:
            print(f"  FAILED {j.cell.label}: {j.error.strip().splitlines()[-1]}")
    print(f"  record: {results / (stem + '.json')}")

    absent = [k for k, u in declared.items() if metrics.get(k, (0, None))[1] != u]
    if absent:
        print(f"  absent: {', '.join(absent)}")
    shown = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in declared}
    # a per-layer metric whose hook target is gone is absent by design
    correct = failed == 0 and not (args.trace == 0 and absent)
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
