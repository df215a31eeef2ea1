import json
from pathlib import Path

import pytest

from fraysched.core import CycleWindow, Signal, load_instance
from fraysched.exclusion import compute_mems
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
    ms = Multischedule(config, {"x": window}, compute_mems((sig,), (("x",),)))
    ms.slots, ms.periods = [[free]], [1]
    return find_position_for_signal(ms, sig)
