"""Acceptance criteria, one test per criterion.

Run stand-alone with `pytest tests/test_acceptance.py -v -s`; each test
prints an explicit PASS line with the measured figures once its assertions
hold.
"""

import json
import random
import time

from fraysched.benchgen import PROFILES, generate_instance
from fraysched.core import load_instance
from fraysched.exclusion import compute_mems, dense_matrices
from fraysched.multischedule import schedule_from_dict, schedule_to_dict
from fraysched.scheduler import OrderingStrategy, schedule
from fraysched.validator import validate_multischedule

from oracles import (
    brute_force_min_slots,
    frame_view,
    make_random_instance,
    nodes_conflict,
    signals_conflict,
)

STRATEGIES = list(OrderingStrategy)


def test_criterion_1_example1_exclusion_matrices(example1):
    t0 = time.perf_counter()
    mems = compute_mems(example1.signals, example1.variants)
    smem, _ = dense_matrices(mems)
    ids = list(mems.variants_of)
    zero_pairs = {
        tuple(sorted((ids[i], ids[j])))
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if not smem[i][j]
    }
    assert zero_pairs == {
        ("A", "E"), ("A", "H"), ("D", "E"), ("D", "H"), ("E", "G"), ("G", "H"),
    }
    assert nodes_conflict(mems, 1, 2)
    assert nodes_conflict(mems, 1, 3)
    assert not nodes_conflict(mems, 2, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: Example 1 SMEM/NMEM exact ({elapsed * 1e3:.1f} ms)")


def test_criterion_2_example1_ffp_schedule(example1):
    optimum = brute_force_min_slots(example1)
    assert optimum == 3  # exhaustive search confirms 3 slots is optimal

    res = schedule(example1, OrderingStrategy.FFP)
    assert res.slot_count == 3
    assert validate_multischedule(
        res.multischedule.placement_records, res.multischedule.slot_nodes, example1
    ) == []

    # G and H (nodes 2 and 3, never co-variant) share one slot
    placements = {s.id: p for s, p in res.multischedule.placement_records}
    assert placements["G"].slot == placements["H"].slot

    # E is stored overlapping another node-1 signal it never rides with,
    # in a late cycle of its window (the paper's figure shows the same
    # structure; slot indices may permute)
    pos_e = placements["E"]
    assert pos_e.first_cycle >= 2
    frame = frame_view(res.multischedule)[pos_e.slot][pos_e.first_cycle]
    mems = compute_mems(example1.signals, example1.variants)
    overlapped = [
        e.signal
        for e in frame
        if e.signal != "E"
        and e.offset_bits < pos_e.offset_bits + 16
        and pos_e.offset_bits < e.offset_bits + e.length_bits
    ]
    assert overlapped
    assert all(not signals_conflict(mems, "E", other) for other in overlapped)
    print(
        "\nACCEPTANCE 2 PASS: FFP reproduces the 3-slot optimum "
        f"(G/H share slot {placements['G'].slot}, E overlaps {overlapped})"
    )


def test_criterion_3_randomized_oracle_suite():
    t0 = time.perf_counter()
    rng = random.Random(20240801)
    instances = 0
    runs = 0
    while instances < 1000:
        inst = make_random_instance(
            rng, max_signals=12, max_nodes=3, max_variants=4
        )
        instances += 1
        counts = {}
        for strat in STRATEGIES:
            res = schedule(inst, strat)
            violations = validate_multischedule(
                res.multischedule.placement_records, res.multischedule.slot_nodes, inst
            )
            assert violations == [], (instances, strat, violations)
            counts[strat] = res.slot_count
            runs += 1
        optimum = brute_force_min_slots(inst, upper_bound=min(counts.values()) + 1)
        for strat, count in counts.items():
            assert count >= optimum, (instances, strat, count, optimum)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 3 PASS: {instances} random instances x {len(STRATEGIES)} "
        f"strategies, zero violations, never below optimum ({elapsed:.1f} s)"
    )


def test_criterion_4_ordering_trends_on_benchmark_sets():
    profiles = ["set1", "set2", "set3", "set4", "set5", "set6", "set7"]
    strategies = ["ff", "ffp", "ffl", "ffc"]
    seeds = range(10)
    table = {}
    for name in profiles:
        # each instance is generated and loaded once, for all strategies
        instances = [load_instance(generate_instance(PROFILES[name], seed)) for seed in seeds]
        means = {}
        for strat in strategies:
            counts = [
                schedule(inst, OrderingStrategy.from_name(strat)).slot_count
                for inst in instances
            ]
            means[strat] = sum(counts) / len(counts)
        table[name] = means

    holds = 0
    for name, m in table.items():
        ok = (
            m["ffc"] <= m["ffp"] + 0.5
            and m["ffc"] <= m["ff"]
            and m["ffl"] >= m["ff"]
        )
        holds += ok
        print(
            f"\n  {name}: ff={m['ff']:.1f} ffp={m['ffp']:.1f} "
            f"ffl={m['ffl']:.1f} ffc={m['ffc']:.1f} {'ok' if ok else 'MISS'}"
        )
    assert holds >= 6, table
    print(f"ACCEPTANCE 4 PASS: ordering trend holds on {holds}/7 profiles")


def test_criterion_5_large_single_node_runtime():
    inst = load_instance(generate_instance(PROFILES["1ecu3000"], 0))
    assert len(inst.signals) >= 2800
    assert inst.config.payload_bits == 128
    res = schedule(inst, OrderingStrategy.FFC)
    assert res.wall_time_s < 5.0
    assert validate_multischedule(
        res.multischedule.placement_records, res.multischedule.slot_nodes, inst
    ) == []
    print(
        f"\nACCEPTANCE 5 PASS: {len(inst.signals)} signals scheduled with FFC "
        f"in {res.wall_time_s:.2f} s ({res.slot_count} slots)"
    )


def test_criterion_6_property_suite(example1):
    # determinism: byte-identical schedule documents
    for seed in (8, 99):
        inst = make_random_instance(random.Random(seed), max_signals=12)
        for strat in STRATEGIES:
            a = json.dumps(schedule_to_dict(schedule(inst, strat).multischedule),
                           sort_keys=True)
            b = json.dumps(schedule_to_dict(schedule(inst, strat).multischedule),
                           sort_keys=True)
            assert a == b

    # validator single-fault detection, one fault per rule class in the
    # Example 1 FFP schedule: the rule and coordinates of every violation
    base = schedule_to_dict(schedule(example1, OrderingStrategy.FFP).multischedule)

    def violations(fn):
        doc = json.loads(json.dumps(base))
        fn(doc)
        parsed = schedule_from_dict(doc, example1)
        return [(v.rule, v.signal, v.slot, v.variant, v.cycle)
                for v in validate_multischedule(*parsed, example1)]

    def move(doc, sid, to_slot):
        for slot in doc["slots"]:
            for p in list(slot["placements"]):
                if p["signal"] == sid:
                    slot["placements"].remove(p)
                    doc["slots"][to_slot]["placements"].append(p)
                    return p

    def edit(doc, sid, **kw):
        for slot in doc["slots"]:
            for p in slot["placements"]:
                if p["signal"] == sid:
                    p.update(kw)
                    return p

    def drop(doc, sid):
        for slot in doc["slots"]:
            for p in list(slot["placements"]):
                if p["signal"] == sid:
                    slot["placements"].remove(p)

    # H (node 3) moved into the node-1 slot it shares variant 1 with
    assert violations(lambda d: move(d, "H", 0)) == [
        ("node-exclusivity", None, 0, 1, None),
        ("slot-nodes", None, 0, None, None),
        ("slot-nodes", None, 2, None, None),
    ]
    # C, which rides with B in both variants, stacked on B
    assert violations(
        lambda d: (move(d, "C", 0), edit(d, "C", first_cycle=0, offset_bits=8))
    ) == [("frame-overlap", "B", 0, 0, 0), ("frame-overlap", "B", 0, 0, 2)]
    assert violations(lambda d: edit(d, "B", offset_bits=12)) == [
        ("payload-bound", "B", 0, None, None),
    ]
    # A placed a second time, over F and D
    assert violations(
        lambda d: d["slots"][1]["placements"].append(
            {"signal": "A", "first_cycle": 0, "offset_bits": 0}
        )
    ) == [
        ("periodicity", "A", None, None, None),
        ("frame-overlap", "F", 1, 0, 1),
        ("frame-overlap", "F", 1, 0, 3),
        ("frame-overlap", "D", 1, 0, 2),
    ]
    # D, released in cycle 1, starting in cycle 0
    assert violations(lambda d: edit(d, "D", first_cycle=0)) == [
        ("time-window", "D", 1, None, 0),
    ]
    assert violations(lambda d: drop(d, "G")) == [
        ("coverage", "G", None, 0, None),
        ("slot-nodes", None, 2, None, None),
    ]
    print("\nACCEPTANCE 6 PASS: determinism and all six single-fault rules verified")
