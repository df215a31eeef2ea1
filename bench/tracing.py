"""Spans around the program's layers, recorded from outside the program.

The tracer wraps module attributes that `cli`, `scheduler` and the
placement loop look up at call time, records one span per call (name,
start, end, parent span, job id) in memory, and puts the originals back
afterwards.  A hook whose target no longer exists is skipped and listed
in `missing`; the metrics that need it are then absent, not wrong.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, JOB, NOTE = range(6)

# (module, attribute, span name, layer).  Each target is looked up where
# its caller looks it up, so the wrapper is the object that gets called.
HOOKS = (
    ("core", "read_instance", "core.read_instance", "core"),
    ("cli", "schedule", "scheduler.schedule", "scheduler"),
    ("scheduler", "compute_mems", "exclusion.compute_mems", "exclusion"),
    ("scheduler", "round_time_constraints", "core.windows", "core"),
    ("scheduler", "sort_signals", "scheduler.sort", "scheduler"),
    ("scheduler", "place_signal_to_schedule", "multischedule.place", "multischedule"),
    ("multischedule", "find_position_for_signal", "multischedule.find_position", "multischedule"),
    ("multischedule", "schedule_to_dict", "multischedule.schedule_to_dict", "multischedule"),
    ("multischedule", "extract_native_schedule", "multischedule.natives", "multischedule"),
    ("multischedule", "schedule_from_dict", "multischedule.schedule_from_dict", "multischedule"),
    ("validator", "validate_multischedule", "validator.validate", "validator"),
)
ROOT = "cli.main"
LAYER_OF = {name: layer for _, _, name, layer in HOOKS}
LAYER_OF[ROOT] = "cli"
LAYERS = ("cli", "core", "exclusion", "scheduler", "multischedule", "validator")


def _mems_bytes(result):
    return sum(getattr(getattr(result, m, None), "nbytes", 0) for m in ("smem", "nmem"))


# what a span keeps of its call's result, by span name
NOTES = {
    "exclusion.compute_mems": _mems_bytes,
    "multischedule.find_position": lambda result: result is not None,
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.installed: list[tuple] = []
        self.missing = sorted(
            name for mod, attr, name, _ in HOOKS
            if not callable(getattr(modules.get(mod), attr, None))
        )

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx][NOTE] = note(result)
            return result

        return traced

    def install(self) -> None:
        for mod, attr, name, _ in HOOKS:
            module = self.modules.get(mod)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, name))
                self.installed.append((module, attr, fn))

    def uninstall(self) -> None:
        while self.installed:
            module, attr, fn = self.installed.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, note in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, job, note]))
                fh.write("\n")


def layer_metrics(spans: list[list], missing: list[str], job_time_s: float,
                  jobs: set) -> dict:
    """Per-layer figures from the spans of the given jobs of a traced pass.

    `job_time_s` is the benchmark's own timing of those jobs' cli.main
    calls; what the spans leave of it is reported as trace.remainder_s.
    """
    spans = [s if s[JOB] in jobs else [s[NAME], 0.0, 0.0, -1, None, None] for s in spans]
    child_time = [0.0] * len(spans)
    total = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_time = defaultdict(float)
    for i, span in enumerate(spans):
        if span[JOB] is None:
            continue
        duration = span[END] - span[START]
        total[span[NAME]] += duration
        self_time[span[NAME]] += duration - child_time[i]

    out = {}

    def put(name, value, unit, needs=()):
        if not any(n in missing for n in needs):
            out[name] = (value, unit)

    put("cli.self_s", self_time[ROOT], "s")
    put("core.read_instance_s", total["core.read_instance"], "s", ["core.read_instance"])
    put("core.windows_s", total["core.windows"], "s", ["core.windows"])
    put("exclusion.compute_mems_s", total["exclusion.compute_mems"], "s", ["exclusion.compute_mems"])
    mems = [s[NOTE] for s in spans if s[NAME] == "exclusion.compute_mems" and s[JOB] is not None]
    put("exclusion.mems_bytes", max(mems, default=0), "bytes", ["exclusion.compute_mems"])
    put("scheduler.schedule_s", total["scheduler.schedule"], "s", ["scheduler.schedule"])
    put("scheduler.sort_s", total["scheduler.sort"], "s", ["scheduler.sort"])
    put("multischedule.place_s", self_time["multischedule.place"], "s", ["multischedule.place"])
    for key in ("find_position", "schedule_to_dict", "natives", "schedule_from_dict"):
        name = f"multischedule.{key}"
        put(f"{name}_s", total[name], "s", [name])
    put("validator.validate_s", total["validator.validate"], "s", ["validator.validate"])

    # a placement commits its last non-None probe, or opens a slot when
    # the last probe found nothing
    probes = [[] for _ in spans]
    for span in spans:
        if span[NAME] == "multischedule.find_position" and span[PARENT] >= 0:
            probes[span[PARENT]].append(span[NOTE])
    n_probes = rejects = opened = reused = 0
    for i, span in enumerate(spans):
        if span[NAME] != "multischedule.place" or span[JOB] is None:
            continue
        found = probes[i]
        n_probes += len(found)
        if found and found[-1]:
            reused += 1
            rejects += sum(found) - 1
        else:
            opened += 1
            rejects += sum(found)
    counted = ["multischedule.place", "multischedule.find_position"]
    put("multischedule.probes", n_probes, "count", counted)
    put("multischedule.jobs_fit_rejects", rejects, "count", counted)
    put("multischedule.slots_opened", opened, "count", counted)
    put("multischedule.probe_yield", reused / n_probes if n_probes else 0.0, "ratio", counted)

    layer_self = defaultdict(float)
    for name, t in self_time.items():
        layer_self[LAYER_OF[name]] += t
    for layer in LAYERS:
        put(f"{layer}.share", layer_self[layer] / job_time_s if job_time_s else 0.0, "frac")
    covered = total[ROOT]
    put("trace.remainder_s", job_time_s - covered, "s")
    put("trace.covered_frac", covered / job_time_s if job_time_s else 0.0, "frac")
    return out
