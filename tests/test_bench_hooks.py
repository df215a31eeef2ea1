"""The benchmark's tracer wraps package functions by name; a renamed or
deleted target would drop its per-layer metrics without failing a run."""

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
