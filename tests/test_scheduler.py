import json
import random

import pytest

from fraysched.core import load_instance, round_time_constraints
from fraysched.multischedule import schedule_to_dict
from fraysched.scheduler import OrderingStrategy, schedule, sort_signals
from fraysched.validator import validate_multischedule

from oracles import (
    brute_force_min_slots,
    make_random_instance,
    reference_schedule,
    with_mixed_nodes,
)


def windows_of(instance):
    return {
        s.id: round_time_constraints(s, instance.config) for s in instance.signals
    }


class TestSortSignals:
    def test_ffp_sorts_by_period(self, example1):
        sl = sort_signals(example1.signals, OrderingStrategy.FFP, windows_of(example1))
        assert [s.period_us for s in sl] == sorted(s.period_us for s in example1.signals)
        assert [s.id for s in sl] == ["A", "B", "C", "F", "D", "E", "G", "H"]

    def test_ff_is_identity(self, example1):
        sl = sort_signals(example1.signals, OrderingStrategy.FF, windows_of(example1))
        assert [s.id for s in sl] == [s.id for s in example1.signals]

    def test_ffl_puts_wide_signals_first_stably(self, example1):
        sl = sort_signals(example1.signals, OrderingStrategy.FFL, windows_of(example1))
        assert [s.id for s in sl][:2] == ["E", "F"]  # both 16 bit, input order kept
        assert all(s.length_bits == 8 for s in sl[2:])

    def test_ffw_sorts_by_window_span(self, example1):
        wins = windows_of(example1)
        sl = sort_signals(example1.signals, OrderingStrategy.FFW, wins)
        spans = [wins[s.id].span for s in sl]
        assert spans == sorted(spans)

    def test_ffc_equals_composite_key_sort(self):
        # chained stable sorts are equivalent to one sort whose primary key
        # is the last-applied one
        rng = random.Random(11)
        for _ in range(25):
            inst = make_random_instance(rng)
            wins = windows_of(inst)
            got = sort_signals(inst.signals, OrderingStrategy.FFC, wins)
            order = {s.id: i for i, s in enumerate(inst.signals)}
            want = sorted(
                inst.signals,
                key=lambda s: (
                    s.node,
                    s.period_us,
                    wins[s.id].span,
                    -s.length_bits,
                    order[s.id],
                ),
            )
            assert [s.id for s in got] == [s.id for s in want]

    def test_ffc_orders_mixed_node_ids(self):
        # ints first in their own order, then strings; no TypeError
        rng = random.Random(12)
        inst = with_mixed_nodes(make_random_instance(rng, max_signals=12, max_nodes=4))
        got = sort_signals(inst.signals, OrderingStrategy.FFC, windows_of(inst))
        keys = [(isinstance(s.node, str), s.node) for s in got]
        assert keys == sorted(keys)

    def test_strategy_parsing(self):
        assert OrderingStrategy.from_name("FFC") is OrderingStrategy.FFC
        with pytest.raises(ValueError, match="unknown strategy"):
            OrderingStrategy.from_name("best")


class TestSchedule:
    def test_example1_ffp_three_slots(self, example1):
        res = schedule(example1, OrderingStrategy.FFP)
        assert res.slot_count == 3
        assert validate_multischedule(
            res.multischedule.placement_records, res.multischedule.slot_nodes, example1
        ) == []

    def test_empty_instance(self):
        inst = load_instance(
            {
                "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
                "signals": [],
                "variants": [],
            }
        )
        res = schedule(inst, OrderingStrategy.FFC)
        assert res.slot_count == 0

    def test_saturated_node_needs_one_slot_per_signal(self):
        n = 5
        inst = load_instance(
            {
                "config": {"cycle_us": 1000, "hyperperiod_cycles": 4, "payload_bits": 8},
                "signals": [
                    {"id": f"s{i}", "node": 1, "period_us": 1000, "length_bits": 8}
                    for i in range(n)
                ],
                "variants": [[f"s{i}" for i in range(n)]],
            }
        )
        res = schedule(inst, OrderingStrategy.FF)
        assert res.slot_count == n

    def test_infeasible_signal_propagates(self):
        from fraysched.core import InfeasibleSignalError

        inst = load_instance(
            {
                "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
                "signals": [
                    {"id": "x", "node": 1, "period_us": 1000, "length_bits": 2,
                     "release_us": 0, "deadline_us": 999},
                ],
                "variants": [["x"]],
            }
        )
        with pytest.raises(InfeasibleSignalError):
            schedule(inst, OrderingStrategy.FF)

    def test_deterministic_output_bytes(self):
        rng = random.Random(8)
        inst = make_random_instance(rng, max_signals=12)
        for strat in OrderingStrategy:
            a = json.dumps(
                schedule_to_dict(schedule(inst, strat).multischedule), sort_keys=True
            )
            b = json.dumps(
                schedule_to_dict(schedule(inst, strat).multischedule), sort_keys=True
            )
            assert a == b

    def test_every_strategy_validates_and_matches_reference(self):
        rng = random.Random(1234)
        for _ in range(60):
            inst = make_random_instance(rng)
            wins = windows_of(inst)
            for strat in OrderingStrategy:
                res = schedule(inst, strat)
                assert validate_multischedule(
                    res.multischedule.placement_records, res.multischedule.slot_nodes, inst
                ) == []
                order = sort_signals(inst.signals, strat, wins)
                ref_placements, ref_slots = reference_schedule(inst, order)
                got = {
                    sig.id: (p.slot, p.first_cycle, p.offset_bits)
                    for sig, p in res.multischedule.placement_records
                }
                assert got == ref_placements
                assert res.slot_count == ref_slots

    def test_matches_reference_with_mixed_node_types(self):
        rng = random.Random(4321)
        for _ in range(60):
            inst = with_mixed_nodes(make_random_instance(rng, max_nodes=4))
            wins = windows_of(inst)
            for strat in OrderingStrategy:
                res = schedule(inst, strat)
                assert validate_multischedule(
                    res.multischedule.placement_records, res.multischedule.slot_nodes, inst
                ) == []
                order = sort_signals(inst.signals, strat, wins)
                ref_placements, ref_slots = reference_schedule(inst, order)
                got = {
                    sig.id: (p.slot, p.first_cycle, p.offset_bits)
                    for sig, p in res.multischedule.placement_records
                }
                assert got == ref_placements
                assert res.slot_count == ref_slots

    def test_matches_reference_on_benchmark_shaped_instances(self):
        # same check as above but on realistic shapes: 20 variants, 64-cycle
        # hyperperiod, release/deadline policies per benchmark family
        from fraysched.benchgen import PROFILES, BenchmarkProfile, generate_instance

        for pname, seed in [("set2", 0), ("set3", 0), ("set5", 0), ("1ecu500", 0)]:
            prof = PROFILES[pname]
            small = BenchmarkProfile(
                prof.name, prof.node_count, (120, 160), prof.payload_bits,
                prof.release_policy, prof.deadline_policy,
            )
            inst = load_instance(generate_instance(small, seed))
            wins = windows_of(inst)
            for strat in OrderingStrategy:
                res = schedule(inst, strat)
                order = sort_signals(inst.signals, strat, wins)
                ref_placements, ref_slots = reference_schedule(inst, order)
                got = {
                    sig.id: (p.slot, p.first_cycle, p.offset_bits)
                    for sig, p in res.multischedule.placement_records
                }
                assert got == ref_placements, (pname, strat)
                assert res.slot_count == ref_slots

    def test_slot_count_lower_bounds(self):
        rng = random.Random(77)
        for _ in range(40):
            inst = make_random_instance(rng)
            res = schedule(inst, OrderingStrategy.FFC)
            H = inst.config.hyperperiod_cycles
            W = inst.config.payload_bits
            for group in inst.variants:
                nodes = {s.node for s in inst.signals if s.id in group}
                bits = sum(
                    s.length_bits * (H // (s.period_us // inst.config.cycle_us))
                    for s in inst.signals
                    if s.id in group
                )
                assert res.slot_count >= len(nodes)
                assert res.slot_count >= -(-bits // (H * W))

    def test_not_below_optimum_on_micro_instances(self):
        rng = random.Random(55)
        for _ in range(40):
            inst = make_random_instance(rng, max_signals=8)
            res = schedule(inst, OrderingStrategy.FFP)
            opt = brute_force_min_slots(inst, upper_bound=res.slot_count + 1)
            assert res.slot_count >= opt

    def test_wall_time_recorded(self, example1):
        res = schedule(example1, OrderingStrategy.FFC)
        assert res.wall_time_s >= 0.0
