import copy
import json
import random
from unittest import mock

import pytest

from fraysched import validator
from fraysched.benchgen import PROFILES, generate_instance
from fraysched.core import FlexRayConfig, Instance, Signal, load_instance
from fraysched.multischedule import (
    Placement,
    ScheduleError,
    schedule_from_dict,
    schedule_to_dict,
)
from fraysched.scheduler import OrderingStrategy, schedule
from fraysched.validator import validate_multischedule

from conftest import run_python
from oracles import frame_overlaps, make_random_instance, reference_violations


def ffp_doc(example1):
    return schedule_to_dict(schedule(example1, OrderingStrategy.FFP).multischedule)


def find_placement(doc, signal):
    for slot in doc["slots"]:
        for p in slot["placements"]:
            if p["signal"] == signal:
                return slot, p
    raise AssertionError(f"{signal} not placed")


def matches_reference(parsed, instance) -> list[dict]:
    """The validator's violations on parsed (records, slot nodes),
    checked against the unscreened all-frames reference: same rules,
    messages, coordinates and order."""
    got = [v.to_dict() for v in validate_multischedule(*parsed, instance)]
    assert got == reference_violations(*parsed, instance)
    return got


def test_reference_schedule_is_feasible(example1, example1_schedule_doc):
    parsed = schedule_from_dict(example1_schedule_doc, example1)
    assert validate_multischedule(*parsed, example1) == []


def test_scheduler_output_is_feasible(example1):
    for strat in OrderingStrategy:
        ms = schedule(example1, strat).multischedule
        assert validate_multischedule(ms.placement_records, ms.slot_nodes, example1) == []


def test_validator_import_loads_no_engine_module():
    # the checker stands apart from the engine whose output it re-reads
    code = (
        "import sys\n"
        "import fraysched.validator\n"
        "engine = ('multischedule', 'scheduler', 'exclusion')\n"
        "print(sorted(m for m in engine if 'fraysched.' + m in sys.modules))\n"
    )
    done = run_python(["-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_unknown_signal_rejected(example1, example1_schedule_doc):
    doc = copy.deepcopy(example1_schedule_doc)
    doc["slots"][0]["placements"].append(
        {"signal": "ZZ", "first_cycle": 0, "offset_bits": 0}
    )
    with pytest.raises(ScheduleError, match="unknown signal"):
        schedule_from_dict(doc, example1)


def test_violations_serialize_with_coordinates(example1):
    doc = ffp_doc(example1)
    _, p_d = find_placement(doc, "D")
    p_d["first_cycle"] = 0
    parsed = schedule_from_dict(doc, example1)
    violations = validate_multischedule(*parsed, example1)
    payload = [v.to_dict() for v in violations]
    assert all("rule" in d and "message" in d for d in payload)
    json.dumps(payload)  # must be JSON-serializable


def test_random_mutations_of_valid_schedules_are_flagged():
    # perturb one placement at random; whenever the perturbation breaks a
    # rule the validator must notice (and must stay quiet on the original)
    rng = random.Random(606)
    flagged = 0
    for _ in range(120):
        inst = make_random_instance(rng, max_signals=8)
        if not inst.signals:
            continue
        res = schedule(inst, OrderingStrategy.FFP)
        doc = schedule_to_dict(res.multischedule)
        parsed = schedule_from_dict(doc, inst)
        assert validate_multischedule(*parsed, inst) == []

        mutated = copy.deepcopy(doc)
        slots = [s for s in mutated["slots"] if s["placements"]]
        if not slots:
            continue
        slot = rng.choice(slots)
        victim = rng.choice(slot["placements"])
        field = rng.choice(["first_cycle", "offset_bits", "slot"])
        if field == "slot" and len(mutated["slots"]) > 1:
            slot["placements"].remove(victim)
            rng.choice([s for s in mutated["slots"] if s is not slot])[
                "placements"
            ].append(victim)
        elif field == "first_cycle":
            victim["first_cycle"] += rng.choice([-1, 1, 2])
        else:
            victim["offset_bits"] += rng.choice([1, 3, inst.config.payload_bits])
        if matches_reference(schedule_from_dict(mutated, inst), inst):
            flagged += 1
    # most random perturbations break something; a few may stay feasible
    assert flagged > 60


def test_frame_overlaps_match_pairwise_oracle_on_mutated_schedules():
    # scramble placements (cycle, offset, slot, duplicates) and crowd the
    # moved ones into the first two slots, then compare the frame-overlap
    # violations, in order, with an all-pairs scan
    rng = random.Random(4242)
    total = 0
    for _ in range(150):
        inst = make_random_instance(rng, max_signals=20)
        W = inst.config.payload_bits
        H = inst.config.hyperperiod_cycles
        doc = schedule_to_dict(schedule(inst, OrderingStrategy.FF).multischedule)
        slots = doc["slots"]
        slots.append({"index": len(slots), "nodes": [], "placements": []})
        moved = []
        for slot in slots:
            for p in list(slot["placements"]):
                if rng.random() < 0.6:
                    p["offset_bits"] = rng.randint(-2, W)
                    p["first_cycle"] = rng.randint(-1, H)
                    if rng.random() < 0.5:
                        slot["placements"].remove(p)
                        moved.append(p)
                    if rng.random() < 0.15:
                        moved.append(dict(p))
        for p in moved:
            slots[rng.randrange(min(2, len(slots)))]["placements"].append(p)
        parsed = schedule_from_dict(doc, inst)
        matches_reference(parsed, inst)
        got = [v for v in validate_multischedule(*parsed, inst) if v.rule == "frame-overlap"]
        want = frame_overlaps(parsed[0], inst)
        assert [(v.signal, v.slot, v.cycle, v.variant) for v in got] == [
            (a, slot, c, j) for a, _b, slot, c, j in want
        ]
        assert all(
            v.message.startswith(f"signals {a} and {b} overlap")
            for v, (a, b, *_rest) in zip(got, want)
        )
        total += len(want)
    assert total > 500


def test_overlap_sweep_on_a_large_sparse_frame():
    # 2000 one-bit signals of one variant tile slot 0 of the widest frame,
    # and one more sits on the first of them: H overlaps, one per frame,
    # among ~2000^2 / 2 pairs that an all-pairs loop, such as the
    # reference's, would test
    H, W, n = 64, 2032, 2000
    signals = [Signal(f"s{i}", 1, 1000, 1, 0, 1000) for i in range(n + 1)]
    inst = Instance(FlexRayConfig(1000, H, W), tuple(signals),
                    (frozenset(s.id for s in signals),))
    records = [(s, Placement(0, 0, i)) for i, s in enumerate(signals[:n])]
    records.append((signals[n], Placement(0, 0, 0)))
    assert [v.to_dict() for v in validate_multischedule(records, [{1}], inst)] == [
        {"rule": "frame-overlap", "signal": "s0", "slot": 0, "variant": 0, "cycle": c,
         "message": f"signals s0 and s2000 overlap in slot 0 cycle {c} but share variant 0"}
        for c in range(H)
    ]


# Hand-made frame edge cases on a 4-cycle, 8-bit bus.  a, b and d share
# variant 0, c alone rides in variant 1; d sits on a third node.  e and f
# share only variant 64, past 62 empty ones, beyond one 64-bit word.
EDGE_INSTANCE = {
    "config": {"cycle_us": 1000, "hyperperiod_cycles": 4, "payload_bits": 8},
    "signals": [
        {"id": "a", "node": 1, "period_us": 1000, "length_bits": 4},
        {"id": "b", "node": 1, "period_us": 2000, "length_bits": 4},
        {"id": "c", "node": 2, "period_us": 1000, "length_bits": 4},
        {"id": "d", "node": 3, "period_us": 2000, "length_bits": 4},
        {"id": "e", "node": 1, "period_us": 1000, "length_bits": 4},
        {"id": "f", "node": 1, "period_us": 2000, "length_bits": 4},
    ],
    "variants": [["a", "b", "d"], ["c"]] + [[]] * 62 + [["e", "f"]],
}

EDGE_CASES = {
    # (signal, first_cycle, offset_bits) in one slot -> rules reported
    "touching ranges": ([("a", 0, 0), ("b", 0, 4)], set()),
    "overlap only in a later job": ([("a", 0, 0), ("b", 1, 2)], {"frame-overlap"}),
    "negative offset": ([("b", 0, 0), ("a", 0, -2)], {"payload-bound", "frame-overlap"}),
    "negative first cycle": (
        [("a", 0, 0), ("b", -1, 0)],
        {"time-window", "periodicity", "frame-overlap"},
    ),
    # a spills past the payload into the bits of the next cycle, where b
    # starts: not an overlap inside any frame
    "past the payload": ([("a", 0, 6), ("b", 1, 0)], {"payload-bound"}),
    # the screen flags it instead of building a bit mask that long
    "offset far past the payload": ([("a", 0, 0), ("b", 0, 10**12)], {"payload-bound"}),
    "first cycle past the hyperperiod": (
        [("a", 0, 0), ("b", 4, 0)], {"time-window", "periodicity"}
    ),
    "same signal twice in one slot": (
        [("a", 0, 0), ("b", 0, 4), ("a", 0, 0)], {"periodicity", "frame-overlap"}
    ),
    "two nodes without a shared variant": ([("a", 0, 0), ("c", 0, 0)], set()),
    "two nodes sharing a variant": ([("a", 0, 0), ("d", 0, 4)], {"node-exclusivity"}),
    "overlap in variant 64": ([("e", 0, 0), ("f", 1, 2)], {"frame-overlap"}),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_cases_match_reference(case):
    inst = load_instance(EDGE_INSTANCE)
    crowded, rules = EDGE_CASES[case]
    # every signal not in the crowded slot gets a clean slot of its own
    placed = {sid for sid, _, _ in crowded}
    slots = [crowded] + [[(s.id, 0, 0)] for s in inst.signals if s.id not in placed]
    doc = {
        "slots": [
            {"placements": [
                {"signal": sid, "first_cycle": c, "offset_bits": off}
                for sid, c, off in slot
            ]}
            for slot in slots
        ]
    }
    got = matches_reference(schedule_from_dict(doc, inst), inst)
    assert {v["rule"] for v in got} == rules
    assert all(v.get("slot", 0) == 0 for v in got)


# Node exclusivity on a one-cycle, 16-bit bus.  p and q share only variant
# 1, q and r only variant 2, p and r none; q1 and q2 are q's node in one
# variant each; i and s sit on nodes 1 and "1", which share variant 0; u
# and w share only variant 64, past 61 empty ones; x, y and z, on three
# nodes, share only variant 65.
NODE_INSTANCE = {
    "config": {"cycle_us": 1000, "hyperperiod_cycles": 1, "payload_bits": 16},
    "signals": [
        {"id": sid, "node": node, "period_us": 1000, "length_bits": 4}
        for sid, node in (("p", "p"), ("q", "q"), ("r", "r"), ("q1", "q"),
                          ("q2", "q"), ("i", 1), ("s", "1"), ("u", "u"), ("w", "w"),
                          ("x", "x"), ("y", "y"), ("z", "z"))
    ],
    "variants": [["i", "s"], ["p", "q", "q1"], ["q", "r", "q2"]]
    + [[]] * 61 + [["u", "w"], ["x", "y", "z"]],
}

NODE_CASES = {
    # signals in one slot, at offsets 0, 4, ... -> (variant, carriers)
    "variants shared along a chain": (
        ["p", "q", "r"], [(1, "['p', 'q']"), (2, "['q', 'r']")]
    ),
    "one node, two records, two variants": (
        ["p", "q1", "q2", "r"], [(1, "['p', 'q']"), (2, "['q', 'r']")]
    ),
    "int and str node ids": (["i", "s"], [(0, "['1', '1']")]),
    "two nodes sharing only variant 64": (["u", "w"], [(64, "['u', 'w']")]),
    "three nodes in one variant": (["x", "y", "z"], [(65, "['x', 'y', 'z']")]),
}


@pytest.mark.parametrize("case", NODE_CASES)
def test_node_exclusivity_matches_reference(case):
    inst = load_instance(NODE_INSTANCE)
    crowded, want = NODE_CASES[case]
    slots = [[(sid, 4 * k) for k, sid in enumerate(crowded)]]
    slots += [[(s.id, 0)] for s in inst.signals if s.id not in crowded]
    doc = {
        "slots": [
            {"placements": [
                {"signal": sid, "first_cycle": 0, "offset_bits": off}
                for sid, off in slot
            ]}
            for slot in slots
        ]
    }
    got = matches_reference(schedule_from_dict(doc, inst), inst)
    assert [(v["rule"], v["slot"], v["variant"], v["message"]) for v in got] == [
        ("node-exclusivity", 0, j, f"slot 0 carries nodes {nodes} in variant {j}")
        for j, nodes in want
    ]


def test_stated_slot_nodes_match_reference():
    # per slot: nodes stated or not, equal to the carried set or not,
    # including the int 1 against the string "1"
    rng = random.Random(515)
    seen = set()
    for _ in range(60):
        inst = make_random_instance(rng, max_nodes=4)
        doc = schedule_to_dict(schedule(inst, OrderingStrategy.FFC).multischedule)
        for slot in doc["slots"]:
            pick = rng.randrange(4)
            if pick == 0:
                del slot["nodes"]
            elif pick == 1:
                slot["nodes"] = [str(n) for n in slot["nodes"]]
            elif pick == 2:
                slot["nodes"] = slot["nodes"][1:] + [rng.randint(1, 5)]
        got = matches_reference(schedule_from_dict(doc, inst), inst)
        seen.update(v["rule"] for v in got)
        for v in got:
            stated = doc["slots"][v["slot"]]["nodes"]
            carried = {
                s.node
                for p in doc["slots"][v["slot"]]["placements"]
                for s in inst.signals
                if s.id == p["signal"]
            }
            assert set(stated) != carried
    assert seen == {"slot-nodes"}


def _plant_fault(rng, doc):
    """Break one placement of the document: stack it on another placement,
    nudge its offset or first cycle, or record it twice."""
    slots = doc["slots"]
    slot = rng.choice([s for s in slots if s["placements"]])
    victim = rng.choice(slot["placements"])
    kind = rng.randrange(4)
    if kind == 0:
        target = rng.choice([s for s in slots if s["placements"]])
        model = rng.choice(target["placements"])
        slot["placements"].remove(victim)
        victim["first_cycle"] = model["first_cycle"]
        victim["offset_bits"] = model["offset_bits"] + rng.randint(-2, 2)
        target["placements"].append(victim)
    elif kind == 1:
        victim["offset_bits"] += rng.choice([-3, -1, 1, 5])
    elif kind == 2:
        victim["first_cycle"] += rng.choice([-1, 1, 2])
    else:
        slot["placements"].append(dict(victim))


@pytest.mark.parametrize("profile", ["set1", "set7"])
def test_planted_faults_match_reference_on_benchmark_sized_schedules(profile):
    # one to three faults among ~1000 clean placements, so that a few
    # dirty slots sit among many clean ones
    inst = load_instance(generate_instance(PROFILES[profile], 0))
    doc = schedule_to_dict(schedule(inst, OrderingStrategy.FFC).multischedule)
    assert matches_reference(schedule_from_dict(doc, inst), inst) == []
    rng = random.Random(profile)
    rules = set()
    for _ in range(12):
        mutated = copy.deepcopy(doc)
        for _ in range(rng.randint(1, 3)):
            _plant_fault(rng, mutated)
        got = matches_reference(schedule_from_dict(mutated, inst), inst)
        assert got
        rules.update(v["rule"] for v in got)
    # a placement moved to another slot also leaves that slot's stated
    # nodes behind, so slot-nodes shows up beside the placement rules
    assert rules == {
        "frame-overlap", "node-exclusivity", "payload-bound", "periodicity",
        "time-window", "slot-nodes",
    }


# The column screen of the placement rules, on a 4-cycle, 8-bit bus.  r's
# window is [2, 2] inside its 4-cycle period; q's deadline reaches cycle 3
# but its 2-cycle period clips its window to [0, 1].  a and c (nodes 1 and
# 2) share variant 0; b (node 2) rides only in variant 1.
COLUMN_INSTANCE = {
    "config": {"cycle_us": 1000, "hyperperiod_cycles": 4, "payload_bits": 8},
    "signals": [
        {"id": "r", "node": 1, "period_us": 4000, "length_bits": 4,
         "release_us": 2000, "deadline_us": 1000},
        {"id": "q", "node": 1, "period_us": 2000, "length_bits": 4,
         "deadline_us": 4000},
        {"id": "a", "node": 1, "period_us": 1000, "length_bits": 2},
        {"id": "b", "node": 2, "period_us": 1000, "length_bits": 2},
        {"id": "c", "node": 2, "period_us": 1000, "length_bits": 2},
    ],
    "variants": [["r", "q", "a", "c"], ["r", "b"]],
}
CLEAN = {"r": (2, 0), "q": (0, 0), "a": (0, 0), "b": (0, 0), "c": (0, 0)}

COLUMN_FAULTS = {
    # one record's (first_cycle, offset_bits) -> a rule it must break
    "first cycle below the release": ("r", 1, 0, "time-window"),
    "first cycle past the deadline": ("r", 3, 0, "time-window"),
    "first cycle at the period": ("q", 2, 0, "time-window"),
    "first cycle past the hyperperiod": ("q", 5, 0, "periodicity"),
    "negative first cycle": ("q", -1, 0, "periodicity"),
    "negative offset": ("a", 0, -1, "payload-bound"),
    "offset and length past W": ("a", 0, 7, "payload-bound"),
}


def _one_per_slot(inst, placed):
    """Records with each (signal id, first_cycle, offset_bits) of `placed`
    in a slot of its own, and the slots' nodes."""
    by_id = {s.id: s for s in inst.signals}
    records = [
        (by_id[sid], Placement(i, first, offset))
        for i, (sid, first, offset) in enumerate(placed)
    ]
    return records, [{sig.node} for sig, _pos in records]


def _rule_loop_runs(records, slot_nodes, inst):
    """The violations, checked against the reference, and whether the
    per-record rule loop ran."""
    with mock.patch.object(validator, "_record_rules", wraps=validator._record_rules) as loop:
        got = matches_reference((records, slot_nodes), inst)
    return got, loop.called


@pytest.mark.parametrize("among", [False, True], ids=["alone", "among-clean"])
@pytest.mark.parametrize("fault", COLUMN_FAULTS)
def test_screened_rule_columns_match_reference(fault, among):
    inst = load_instance(COLUMN_INSTANCE)
    sid, first, offset, rule = COLUMN_FAULTS[fault]
    placed = [(sid, first, offset)]
    if among:
        # the faulty record in the middle of clean ones, each in its slot
        clean = [(s, *CLEAN[s]) for s in CLEAN if s != sid]
        placed = clean[:2] + placed + clean[2:]
    got, looped = _rule_loop_runs(*_one_per_slot(inst, placed), inst)
    assert looped
    assert rule in {v["rule"] for v in got}
    assert {v["rule"] for v in got} <= {"time-window", "periodicity", "payload-bound",
                                        "coverage"}
    assert ("coverage" in {v["rule"] for v in got}) == (not among)


def test_period_longer_than_the_hyperperiod_matches_reference():
    # Instance admits no such period, but a tuple built around its check
    # may hold one: first cycle 5 is inside its 8-cycle period and past H
    cfg = FlexRayConfig(1000, 4, 8)
    sig = Signal("x", 1, 8000, 4, 0, 8000)
    inst = tuple.__new__(Instance, (cfg, (sig,), (frozenset({"x"}),)))
    inst.variants_of = {"x": [0]}
    for first in (0, 3, 5):
        got, looped = _rule_loop_runs([(sig, Placement(0, first, 0))], [{1}], inst)
        # the rule columns are exact, so only a flagged record is formatted
        assert looped == (first > 3)
        assert [v["rule"] for v in got] == (["time-window"] if first > 3 else [])


def test_clean_rule_columns_skip_the_rule_loop():
    inst = load_instance(COLUMN_INSTANCE)
    records, slot_nodes = _one_per_slot(inst, [(s, *CLEAN[s]) for s in CLEAN])
    assert _rule_loop_runs(records, slot_nodes, inst) == ([], False)


@pytest.mark.parametrize(
    "partner, want",
    [("b", []), ("c", [(0, "['1', '2']")])],
    ids=["two-nodes-sharing-no-variant", "two-nodes-sharing-a-variant"],
)
def test_two_node_slot_on_the_screened_path(partner, want):
    # a and its partner share slot 0 at offsets 0 and 2, every record clean
    inst = load_instance(COLUMN_INSTANCE)
    by_id = {s.id: s for s in inst.signals}
    others = [s for s in CLEAN if s not in ("a", partner)]
    records = [(by_id["a"], Placement(0, 0, 0)), (by_id[partner], Placement(0, 0, 2))]
    records += [(by_id[s], Placement(i + 1, *CLEAN[s])) for i, s in enumerate(others)]
    slot_nodes = [{1, 2}] + [{by_id[s].node} for s in others]
    got, looped = _rule_loop_runs(records, slot_nodes, inst)
    assert not looped
    assert [(v["rule"], v["slot"], v["variant"], v["message"]) for v in got] == [
        ("node-exclusivity", 0, j, f"slot 0 carries nodes {nodes} in variant {j}")
        for j, nodes in want
    ]
