"""Benchmark workloads and their set-up.

A workload is a pool of cells, one cell per (instance, strategy) pair.
The instances are a pure function of the workload seed: instance seed k
of benchmark seed s is ``s * 100 + k``, and every document is written
exactly as ``fraysched generate`` writes it.
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from hostspeed import probe

# Seeds kept out of every tuning run.  A later claim is re-checked on
# them; see README.md.
HELD_OUT_SEEDS = tuple(range(1000, 1010))

# Set-up runs this many times per run and setup_s is their median.
SETUP_REPEATS = 5

# Profiles that are not in benchgen.PROFILES, built from the public
# BenchmarkProfile type so that benchgen itself stays unchanged.
CUSTOM_PROFILES = {
    # 1ecu3000's shape (one node, 128-bit payload, 20 variants, random
    # deadlines) at 1000 signals, so that a run holds dozens of instances
    "1ecu1000-128b": dict(
        name="1ecu1000-128b",
        node_count=1,
        signal_count_range=(1000, 1000),
        payload_bits=128,
        release_policy="first_five_cycles",
        deadline_policy="random",
    ),
    "wide-60v": dict(
        name="wide-60v",
        node_count=8,
        signal_count_range=(6000, 6000),
        payload_bits=64,
        release_policy="first_five_cycles",
        deadline_policy="last_third",
        variants=60,
        variant_prob_max=0.3,
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profiles: tuple[str, ...]
    strategies: tuple[str, ...]
    instances_per_profile: int
    # fixed per workload so that the figure means the same thing on every
    # commit; chosen so that a run at this commit has ten jobs beyond it
    # where that many fit into a run (see README.md)
    tail_pct: float
    # instances_per_profile is sized so that one pass over the cells takes
    # 20-40 s at this commit on a 2-vCPU VM


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "families",
            "set1-3,5-7 x all five orderings: multi-node, node exclusion on; "
            "placement is half a job, so serializer and validator changes show",
            ("set1", "set2", "set3", "set5", "set6", "set7"),
            ("ff", "ffp", "ffw", "ffl", "ffc"),
            instances_per_profile=3,
            tail_pct=88.0,
        ),
        Workload(
            "ecu128b-ffc",
            "one node, 128-bit payload, 1000 signals, 20 variants, with ffc: "
            "placement (the conflict-mask scan) is ~3/4 of a schedule call",
            ("1ecu1000-128b",),
            ("ffc",),
            instances_per_profile=36,
            tail_pct=70.0,
        ),
        Workload(
            "wide-60v",
            "6000 signals, 8 nodes, 60 variants with ffc: per-variant natives "
            "and the O(n^2) conflict matrices dominate the non-placement time",
            ("wide-60v",),
            ("ffc",),
            instances_per_profile=3,
            tail_pct=100.0,
        ),
    )
}


@dataclass(frozen=True)
class Cell:
    index: int
    profile: str
    instance_seed: int
    strategy: str
    path: Path
    signals: int
    variants: tuple[frozenset, ...]

    @property
    def label(self) -> str:
        return f"{self.profile}:{self.instance_seed}:{self.strategy}"


def resolve_profile(benchgen, name: str, tiny: bool = False):
    profile = benchgen.PROFILES.get(name)
    if profile is None:
        profile = benchgen.BenchmarkProfile(**CUSTOM_PROFILES[name])
    if tiny:
        profile = replace(profile, signal_count_range=(40, 40))
    return profile


def import_program():
    """Import the package from scratch and return its modules by name.

    Modules already imported by an earlier set-up are dropped first, so
    each set-up pays the package import; numpy stays loaded.
    """
    for mod in [m for m in sys.modules if m == "fraysched" or m.startswith("fraysched.")]:
        del sys.modules[mod]
    names = ("benchgen", "cli", "core", "exclusion", "multischedule", "scheduler", "validator")
    return {name: importlib.import_module(f"fraysched.{name}") for name in names}


def set_up_once(workload: Workload, seed: int, in_dir: Path, tiny: bool = False):
    """Import the package, generate and write the workload's instances.

    Returns (modules, cells); cells are shuffled by the seed so that a
    traced run, which may stop part way through the cells, samples them
    evenly.
    """
    modules = import_program()
    benchgen = modules["benchgen"]
    shutil.rmtree(in_dir, ignore_errors=True)
    in_dir.mkdir(parents=True)
    cells = []
    for k in range(1 if tiny else workload.instances_per_profile):
        for name in workload.profiles:
            instance_seed = seed * 100 + k
            profile = resolve_profile(benchgen, name, tiny)
            doc = benchgen.generate_instance(profile, instance_seed)
            path = in_dir / f"{name}-{instance_seed}.json"
            # exactly as `fraysched generate` writes it
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            members = tuple(frozenset(group) for group in doc["variants"])
            for strategy in workload.strategies:
                cells.append(
                    Cell(len(cells), name, instance_seed, strategy, path,
                         len(doc["signals"]), members)
                )
    random.Random(f"{workload.name}:{seed}").shuffle(cells)
    if tiny:
        cells = cells[:1]
    return modules, cells


def set_up(workload: Workload, seed: int, in_dir: Path, tiny: bool = False):
    """Run the set-up SETUP_REPEATS times.

    Returns modules, cells, and per set-up (wall seconds, probe seconds).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # as before each job: start from a collected heap
        probe_s = probe()
        t0 = time.perf_counter()
        modules, cells = set_up_once(workload, seed, in_dir, tiny)
        times.append((time.perf_counter() - t0, probe_s))
    return modules, cells, times
