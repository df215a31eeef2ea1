"""Golden sha256 digests of schedule documents on the benchmark profiles.

A cell is (profile, strategy, seed).  Its digests cover the bytes the CLI
writes: the multischedule document and, concatenated in variant order, all
native schedules.  The fixture `golden_digests.json` next to this file was
recorded before the conflict model moved to variant bitsets; any change of
a digest is a change of schedule output.

Regenerate (only when an output change is intended and stated):

    PYTHONPATH=src python3 tests/golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from fraysched.benchgen import PROFILES, generate_instance
from fraysched.core import load_instance
from fraysched.multischedule import extract_native_schedule, schedule_to_dict
from fraysched.scheduler import OrderingStrategy, schedule

FIXTURE = Path(__file__).resolve().parent / "golden_digests.json"
STRATEGIES = ("ff", "ffp", "ffw", "ffl", "ffc")
SEEDS = (0, 1)


def cell_key(profile: str, strategy: str, seed: int) -> str:
    return f"{profile}/{strategy}/{seed}"


def _text(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def digest_cell(profile: str, strategy: str, seed: int) -> dict:
    inst = load_instance(generate_instance(PROFILES[profile], seed))
    ms = schedule(inst, OrderingStrategy.from_name(strategy)).multischedule
    natives = hashlib.sha256()
    for j in range(inst.variants.count):
        natives.update(_text(extract_native_schedule(ms, j, inst.variants)))
    return {
        "schedule": hashlib.sha256(_text(schedule_to_dict(ms))).hexdigest(),
        "natives": natives.hexdigest(),
    }


def main() -> int:
    table = {
        cell_key(p, s, seed): digest_cell(p, s, seed)
        for p in sorted(PROFILES)
        for s in STRATEGIES
        for seed in SEEDS
    }
    sys.stdout.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
