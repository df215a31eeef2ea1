import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fraysched import cli
from fraysched.core import CycleWindow, Signal, load_instance
from fraysched.exclusion import ConflictModel
from fraysched.multischedule import Multischedule, find_position_for_signal

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def example1_instance_path():
    return DATA_DIR / "example1.instance.json"


@pytest.fixture(scope="session")
def example1_schedule_path():
    return DATA_DIR / "example1.schedule.json"


@pytest.fixture()
def example1(example1_instance_path):
    with open(example1_instance_path, encoding="utf-8") as fh:
        return load_instance(json.load(fh))


@pytest.fixture()
def example1_schedule_doc(example1_schedule_path):
    with open(example1_schedule_path, encoding="utf-8") as fh:
        return json.load(fh)


def first_fit(config, free, length, lo=0, hi=0):
    """What `find_position_for_signal` returns for a `length`-bit signal
    whose first job may lie in cycles lo..hi, on a one-slot multischedule
    whose only variant has the free bits `free`: Placement(0, cycle,
    offset) or None."""
    sig = Signal("x", 0, 1, length, 0, 1)
    window = CycleWindow(lo, hi, config.hyperperiod_cycles)
    ms = Multischedule(config, {"x": window}, ConflictModel({"x": [0]}, {0: 1}, 1))
    ms.slots, ms.periods = [[free]], [1]
    return find_position_for_signal(ms, sig)


def run_python(args, **kwargs):
    """`subprocess.run` of this interpreter with `args`, importing the
    package under test: the root it was imported from, found from
    `fraysched.cli`, goes first on the child's PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def run_cli(argv, **kwargs):
    """(exit code, stdout, stderr) of `fraysched ARGV` in a real process.

    The child runs in dev mode with ResourceWarning an error, so a file
    left open is reported at interpreter exit even with the cyclic
    collector paused; any such report, or a traceback, fails the test."""
    done = run_python(
        ["-X", "dev", "-W", "error::ResourceWarning", "-m", "fraysched.cli", *map(str, argv)],
        capture_output=True, text=True, **kwargs,
    )
    for mark in ("ResourceWarning", "Exception ignored", "Traceback", "MemoryError"):
        assert mark not in done.stderr, f"fraysched {argv[0]}: {done.stderr}"
    return done.returncode, done.stdout, done.stderr


def shared_int_doc():
    """100 one-bit signals on 100 nodes and 200 variants that each use all
    of them, W = 2032 and H = 64: every node needs a slot of its own, and
    each slot's 200 variants start as one int of H * W bits.  Variants
    that held one int must share one result, or a slot holds 200 copies
    (about 330 MB in all)."""
    ids = ["s%d" % i for i in range(100)]
    return {
        "config": {"cycle_us": 1000, "hyperperiod_cycles": 64, "payload_bits": 2032},
        "signals": [
            {"id": sid, "node": i, "period_us": 1000, "length_bits": 1}
            for i, sid in enumerate(ids)
        ],
        "variants": [ids] * 200,
    }
