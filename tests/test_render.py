"""The schedule text renderer against json.dumps of reference dicts.

Schedule and native documents are rendered as text; the contract is the
bytes of `json.dumps(doc, indent=2, sort_keys=True) + "\\n"` for the dict
documents that `oracles.schedule_doc` and `oracles.native_doc` build.
"""

import json
import random
from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from fraysched.core import load_instance
from fraysched.multischedule import (
    _node_key,
    extract_native_schedule,
    render_documents,
    schedule_to_dict,
)
from fraysched.scheduler import OrderingStrategy, schedule

from oracles import (
    instance_to_dict,
    make_random_instance,
    native_doc,
    node_split_instances,
    schedule_doc,
    with_mixed_nodes,
)


def dumped(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
                          " ", "\U0001f600", "\ud800", "/", "1"])
TEXT = st.text(st.one_of(TRICKY, st.characters()), min_size=1, max_size=5)
NODE = st.one_of(st.integers(-3, 3), st.sampled_from(["0", "1", "2", "gw"]), TEXT)


@st.composite
def instances(draw):
    """A small random instance with escape-heavy ids, int/str nodes and
    sometimes an empty variant.  Half of them are node-split, so that
    slots shared by two or more nodes are common."""
    if draw(st.booleans()):
        inst = draw(node_split_instances())
    else:
        inst = make_random_instance(random.Random(draw(st.integers(0, 10**6))))
    base = instance_to_dict(inst)
    old_ids = [s["id"] for s in base["signals"]]
    new_ids = draw(st.lists(TEXT, min_size=len(old_ids), max_size=len(old_ids),
                            unique=True))
    rename = dict(zip(old_ids, new_ids))
    nodes = {s["node"] for s in base["signals"]}
    node_map = {n: draw(NODE) for n in sorted(nodes, key=str)}
    for sig in base["signals"]:
        sig["id"] = rename[sig["id"]]
        sig["node"] = node_map[sig["node"]]
    base["variants"] = [[rename[sid] for sid in group] for group in base["variants"]]
    if draw(st.booleans()):
        base["variants"].insert(draw(st.integers(0, len(base["variants"]))), [])
    return load_instance(json.loads(json.dumps(base)))


@given(inst=instances(), strategy=st.sampled_from(list(OrderingStrategy)))
@settings(max_examples=150, deadline=None)
def test_rendered_documents_equal_json_dumps(inst, strategy):
    res = schedule(inst, strategy)
    ms = res.multischedule
    texts = list(render_documents(ms))
    assert texts == [dumped(schedule_doc(ms))] + [
        dumped(native_doc(ms, j, inst.variants)) for j in range(len(inst.variants))
    ]
    assert next(render_documents(ms)) == texts[0]
    assert schedule_to_dict(ms) == schedule_doc(ms)
    for j in range(len(inst.variants)):
        assert extract_native_schedule(ms, j) == native_doc(
            ms, j, inst.variants
        )


def test_tied_node_names_list_the_int_first():
    # node 1 and node "1" never meet in a variant, so they share slot 0;
    # their order must not depend on which signal came first
    for ids in (["a", "b"], ["b", "a"]):
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 1, "payload_bits": 8},
            "signals": [
                {"id": sid, "node": 1 if sid == "a" else "1", "period_us": 1000,
                 "length_bits": 4}
                for sid in ids
            ],
            "variants": [["a"], ["b"]],
        }
        inst = load_instance(doc)
        ms = schedule(inst, OrderingStrategy.FF).multischedule
        assert len(ms.slots) == 1
        assert '"nodes": [\n        1,\n        "1"\n      ],' in next(render_documents(ms))
    # the set the nodes come from may iterate either way round
    assert sorted(["1", 1], key=_node_key) == sorted([1, "1"], key=_node_key) == [1, "1"]


def test_native_node_lists_in_a_shared_slot():
    # a (node 1) and b (node "n2") never meet in a variant, so they share
    # slot 0; c (node 3) meets a in variant 0, so it opens slot 1.  Native
    # 0 sees only node 1 in slot 0, native 1 only "n2", native 2 has no
    # row in slot 0, and variant 3 is empty.
    inst = with_mixed_nodes(load_instance({
        "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
        "signals": [
            {"id": sid, "node": node, "period_us": 1000, "length_bits": 4}
            for sid, node in (("a", 1), ("b", 2), ("c", 3))
        ],
        "variants": [["a", "c"], ["b"], ["c"], []],
    }))
    res = schedule(inst, OrderingStrategy.FF)
    ms = res.multischedule
    assert ms.slot_nodes == [{1, "n2"}, {3}]
    texts = list(render_documents(ms))
    assert texts == [dumped(schedule_doc(ms))] + [
        dumped(native_doc(ms, j, inst.variants)) for j in range(4)
    ]
    nodes = [[slot["nodes"] for slot in json.loads(text)["slots"]] for text in texts]
    assert nodes == [
        [[1, "n2"], [3]],
        [[1], [3]],
        [["n2"], []],
        [[], [3]],
        [[], []],
    ]


def test_empty_schedule_renders_empty_slot_list():
    inst = load_instance({
        "config": {"cycle_us": 1000, "hyperperiod_cycles": 1, "payload_bits": 8},
        "signals": [],
        "variants": [[]],
    })
    res = schedule(inst, OrderingStrategy.FF)
    ms = res.multischedule
    texts = list(render_documents(ms))
    assert texts == [dumped(schedule_doc(ms)), dumped(native_doc(ms, 0, inst.variants))]
    assert '"slots": []' in texts[0]


class CountingMap(Mapping):
    """A read-only mapping that counts how often it is read."""

    def __init__(self, data):
        self.data = data
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.data[key]

    def __iter__(self):
        self.lookups += 1
        return iter(self.data)

    def __len__(self):
        return len(self.data)


def test_natives_are_filed_only_when_asked_for(example1):
    # the multischedule text reads no variant membership; the natives read
    # it once the first of them is asked for
    ms = schedule(example1, OrderingStrategy.FFP).multischedule
    texts = list(render_documents(ms))
    ms.mems.variants_of = counting = CountingMap(ms.mems.variants_of)
    documents = render_documents(ms)
    assert next(documents) == texts[0] == dumped(schedule_doc(ms))
    assert counting.lookups == 0
    natives = list(documents)
    assert natives == texts[1:]
    assert len(natives) == ms.mems.variant_count == len(example1.variants)
    assert counting.lookups > 0
