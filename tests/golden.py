"""Golden sha256 digests of schedule documents on the benchmark profiles.

A cell is (profile, strategy, seed).  Its digests cover the bytes that
`fraysched schedule --native-dir` writes: the multischedule document and,
concatenated in variant order, all native schedules.  The fixture
`golden_digests.json` next to this file was recorded from
`json.dumps(doc, indent=2, sort_keys=True) + "\n"` of the dict documents,
before the conflict model moved to variant bitsets and before the text
renderer replaced that call; any change of a digest is a change of
schedule output.

Regenerate (only when an output change is intended and stated):

    PYTHONPATH=src python3 tests/golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from fraysched.benchgen import PROFILES
from fraysched import cli

FIXTURE = Path(__file__).resolve().parent / "golden_digests.json"
STRATEGIES = ("ff", "ffp", "ffw", "ffl", "ffc")
SEEDS = (0, 1)


def cell_key(profile: str, strategy: str, seed: int) -> str:
    return f"{profile}/{strategy}/{seed}"


def digest_cell(profile: str, strategy: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        instance, out, natives = work / "instance.json", work / "schedule.json", work / "natives"
        argvs = (
            ["generate", "--profile", profile, "--seed", str(seed), "--out", str(instance)],
            ["schedule", str(instance), "--strategy", strategy, "--out", str(out),
             "--native-dir", str(natives)],
        )
        with redirect_stdout(io.StringIO()):
            for argv in argvs:
                if cli.main(argv) != 0:
                    raise RuntimeError(f"fraysched {argv[0]} failed for {profile}")
        digest = hashlib.sha256()
        for path in sorted(natives.iterdir()):
            digest.update(path.read_bytes())
        return {
            "schedule": hashlib.sha256(out.read_bytes()).hexdigest(),
            "natives": digest.hexdigest(),
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
