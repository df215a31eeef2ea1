"""The benchmark's tracer wraps package functions by name; a renamed or
deleted target would drop its per-layer metrics without failing a run,
and so would a call that no longer goes through the wrapped name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    # bench/tracing.py uses the standard library only
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_is_a_callable_of_the_package():
    tracing = load_tracing()
    modules = {mod: importlib.import_module(f"fraysched.{mod}") for mod, *_ in tracing.HOOKS}
    unresolved = [
        f"fraysched.{mod}.{attr}"
        for mod, attr, *_ in tracing.HOOKS
        if not callable(getattr(modules[mod], attr, None))
    ]
    assert unresolved == []
    assert tracing.Tracer(modules).missing == []


# the hooks that `schedule --native-dir` and `validate` reach; the
# multischedule.schedule_to_dict and multischedule.natives hooks wrap
# functions that neither command calls, so their metrics read 0
CLI_PATH = {
    "core.read_instance",
    "scheduler.schedule",
    "exclusion.compute_mems",
    "core.windows",
    "scheduler.sort",
    "multischedule.place",
    "multischedule.find_position",
    "multischedule.schedule_from_dict",
    "validator.validate",
}
UNREACHED = {"multischedule.schedule_to_dict", "multischedule.natives"}


def test_the_cli_path_reaches_its_hooks(tmp_path, example1_instance_path, capsys):
    tracing = load_tracing()
    assert {name for _, _, name, _ in tracing.HOOKS} == CLI_PATH | UNREACHED
    modules = {mod: importlib.import_module(f"fraysched.{mod}") for mod, *_ in tracing.HOOKS}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        out = tmp_path / "schedule.json"
        instance = str(example1_instance_path)
        assert modules["cli"].main(
            ["schedule", instance, "--out", str(out), "--native-dir", str(tmp_path / "natives")]
        ) == 0
        assert modules["cli"].main(["validate", instance, str(out)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert set(names) == CLI_PATH
    assert UNREACHED.isdisjoint(names)
    # every placement searches through the wrapped name, so the probe
    # counters see one search or more per placed signal
    places = [i for i, name in enumerate(names) if name == "multischedule.place"]
    searched = {
        span[tracing.PARENT] for span in tracer.spans
        if span[tracing.NAME] == "multischedule.find_position"
    }
    assert len(places) == 8
    assert searched == set(places)
