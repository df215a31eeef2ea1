"""Mutated instance and schedule documents fed to the command line.

Each example changes `data/example1` documents at random JSON paths: a
value is replaced, deleted or added, the new value drawn from values that
a loader must judge (null, empty containers, empty strings, bools, floats,
-1 and an int far past any field's range).  Whatever the document, a
command exits 0, 1 or 2 without raising, and an exit 2 prints exactly one
`error:` line.  This is a guard: such mutations found no failure when the
suite was written.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fraysched.cli import main

ODD_VALUES = st.sampled_from(
    [None, [], {}, "", True, False, 0.5, -0.0, 1e308, math.inf, math.nan, -1, 10**40]
)

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _paths(doc, path=()):
    """Every path into `doc`, the root included, containers before their
    members."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


@st.composite
def mutated(draw, doc):
    """`doc` with one to three replacements, deletions or additions."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(ODD_VALUES)
        if not path:
            doc = value
            continue
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            parent[last] = value
        elif op == "delete":
            del parent[last]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["x", "id", "node", "index", "nodes"]))] = value
        else:
            parent.insert(last, value)
    return doc


def run(capsys, *argv) -> int:
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
    return code


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@given(data=st.data())
@FUZZ
def test_mutated_instance(data, tmp_path, capsys, example1_instance_path,
                          example1_schedule_path):
    doc = data.draw(mutated(_load(example1_instance_path)))
    inst = _write(tmp_path / "instance.json", doc)
    out = tmp_path / "schedule.json"
    out.unlink(missing_ok=True)
    code = run(capsys, "schedule", inst, "--out", out, "--native-dir", tmp_path / "nat")
    assert (code == 0) == out.exists()
    run(capsys, "validate", inst, out if code == 0 else example1_schedule_path)


@given(data=st.data())
@FUZZ
def test_mutated_schedule(data, tmp_path, capsys, example1_instance_path,
                          example1_schedule_path):
    doc = data.draw(mutated(_load(example1_schedule_path)))
    sched = _write(tmp_path / "schedule.json", doc)
    run(capsys, "validate", example1_instance_path, sched)
