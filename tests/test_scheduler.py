import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraysched.benchgen import PROFILES, generate_instance
from fraysched.core import (
    MAX_PAYLOAD_BITS,
    CycleWindow,
    InfeasibleSignalError,
    Signal,
    load_instance,
    round_time_constraints,
)
from fraysched import scheduler
from fraysched.scheduler import OrderingStrategy, schedule, sort_signals
from fraysched.validator import validate_multischedule

from oracles import (
    make_random_instance,
    reference_schedule,
    with_mixed_nodes,
)


def windows_of(instance):
    return {
        s.id: round_time_constraints(s, instance.config) for s in instance.signals
    }


# each strategy's sort key as one tuple per signal, from the signal and its
# window, written independently of sort_signals: the reference order it must
# give
TUPLE_KEYS = {
    OrderingStrategy.FF: lambda s, w: 0,
    OrderingStrategy.FFP: lambda s, w: s.period_us,
    OrderingStrategy.FFW: lambda s, w: w.deadline_cycle - w.release_cycle,
    OrderingStrategy.FFL: lambda s, w: -s.length_bits,
    OrderingStrategy.FFC: lambda s, w: (
        (isinstance(s.node, str), s.node),
        s.period_us,
        w.deadline_cycle - w.release_cycle,
        -s.length_bits,
    ),
}


def tuple_order(signals, strategy, windows):
    key = TUPLE_KEYS[strategy]
    return sorted(signals, key=lambda s: key(s, windows[s.id]))


def random_instances(seed, count, mixed=False, **shape):
    rng = random.Random(seed)
    for _ in range(count):
        inst = make_random_instance(rng, **shape)
        yield with_mixed_nodes(inst) if mixed else inst


def benchmark_shaped_instances():
    # 120-160 signals of 20 variants on a 64-cycle hyperperiod, with each
    # family's release and deadline policies
    for name in ("set2", "set3", "set5", "1ecu500"):
        small = dataclasses.replace(PROFILES[name], signal_count_range=(120, 160))
        yield load_instance(generate_instance(small, 0))


# the instances the engine is compared with the reference on; the edge
# shapes give a one-bit frame, the widest frame, and hyperperiods where a
# window's frames reach the last cycle, so that the window mask is the
# whole slot
REFERENCE_SOURCES = {
    "random": lambda: random_instances(1234, 60),
    "mixed-nodes": lambda: random_instances(4321, 60, mixed=True, max_nodes=4),
    "benchmark-shaped": benchmark_shaped_instances,
    "W=1": lambda: random_instances(
        2032, 15, mixed=True, max_nodes=4, payload_bits=1, lengths=(1,)
    ),
    "W=max": lambda: random_instances(
        2032, 15, mixed=True, max_nodes=4, payload_bits=MAX_PAYLOAD_BITS,
        lengths=(1, 16, 1000, MAX_PAYLOAD_BITS),
    ),
    "H=1": lambda: random_instances(2032, 15, mixed=True, max_nodes=4, hyperperiod=1),
    "H=64": lambda: random_instances(
        2032, 15, mixed=True, max_nodes=4, hyperperiod=64, periods=(1, 2, 8, 64)
    ),
}


@st.composite
def signals_and_windows(draw):
    """Up to 12 signals with few distinct values per key, so that every key
    ties often; int nodes, negative ones too, mix with str nodes, among
    them "1" beside 1."""
    node = st.one_of(st.sampled_from([-2, 1, "1", "a"]), st.integers(-3, 3), st.just("-1"))
    signals, windows = [], {}
    for i in range(draw(st.integers(0, 12))):
        sig = Signal(
            f"s{i}",
            draw(node),
            draw(st.sampled_from([1000, 2000, 64000])),
            draw(st.one_of(st.integers(1, 5), st.sampled_from([8, 2032]))),
            0,
            1000,
        )
        release = draw(st.integers(0, 2))
        span = draw(st.one_of(st.integers(0, 3), st.just(63)))
        windows[sig.id] = CycleWindow(release, release + span, 64)
        signals.append(sig)
    return tuple(signals), windows


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
        spans = [wins[s.id].deadline_cycle - wins[s.id].release_cycle for s in sl]
        assert spans == sorted(spans)

    def test_ffc_orders_mixed_node_ids(self):
        # ints first in their own order, then strings; no TypeError
        rng = random.Random(12)
        inst = with_mixed_nodes(make_random_instance(rng, max_signals=12, max_nodes=4))
        got = sort_signals(inst.signals, OrderingStrategy.FFC, windows_of(inst))
        keys = [(isinstance(s.node, str), s.node) for s in got]
        assert keys == sorted(keys)

    @given(case=signals_and_windows(), strategy=st.sampled_from(list(OrderingStrategy)))
    @settings(max_examples=400, deadline=None)
    # s0 and s1 tie on node and period; s1's window is one cycle narrower,
    # so FFC puts it first though s0 is longer: span outranks length
    @example(
        case=(
            (Signal("s0", 1, 1000, 5, 0, 1000), Signal("s1", 1, 1000, 1, 0, 1000)),
            {"s0": CycleWindow(0, 1, 64), "s1": CycleWindow(0, 0, 64)},
        ),
        strategy=OrderingStrategy.FFC,
    )
    def test_sort_orders_as_the_tuple_keys(self, case, strategy):
        signals, windows = case
        got = sort_signals(signals, strategy, windows)
        assert [s.id for s in got] == [s.id for s in tuple_order(signals, strategy, windows)]

    def test_sort_orders_as_the_tuple_keys_on_instances(self):
        rng = random.Random(13)
        for i in range(40):
            inst = make_random_instance(rng, max_nodes=4)
            if i % 2:
                inst = with_mixed_nodes(inst)
            wins = windows_of(inst)
            for strat in OrderingStrategy:
                got = sort_signals(inst.signals, strat, wins)
                assert got == tuple_order(inst.signals, strat, wins)

    def test_one_signal_and_none(self):
        sig = Signal("x", "gw", 2000, 4, 0, 1000)
        wins = {"x": CycleWindow(0, 0, 2)}
        for strat in OrderingStrategy:
            assert sort_signals((sig,), strat, wins) == [sig]
            assert sort_signals((), strat, {}) == []

    def test_strategy_parsing(self):
        assert OrderingStrategy.from_name("FFC") is OrderingStrategy.FFC
        with pytest.raises(ValueError, match="unknown strategy"):
            OrderingStrategy.from_name("best")


class TestSchedule:
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

    def test_windows_are_rounded_once_per_triple(self, monkeypatch):
        # random instances repeat (period, release, deadline) triples, which
        # share one rounded window
        calls = []

        def counted(signal, config):
            calls.append(signal.id)
            return round_time_constraints(signal, config)

        monkeypatch.setattr(scheduler, "round_time_constraints", counted)
        rng = random.Random(21)
        for _ in range(40):
            inst = make_random_instance(rng, max_signals=20)
            triples = {(s.period_us, s.release_us, s.deadline_us) for s in inst.signals}
            for strat in (OrderingStrategy.FF, OrderingStrategy.FFC):
                calls.clear()
                assert schedule(inst, strat).multischedule.windows == windows_of(inst)
                assert len(calls) == len(triples)

    def test_first_infeasible_signal_in_input_order_is_named(self):
        # x and y share an infeasible triple, z has another one, and f and
        # g share a feasible one; whatever the input order, the first of x,
        # y and z is named
        triples = {"f": (0, 1000), "g": (0, 1000), "x": (0, 999), "y": (0, 999),
                   "z": (500, 1000)}
        for ids in itertools.permutations(triples):
            inst = load_instance({
                "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
                "signals": [
                    {"id": sid, "node": 1, "period_us": 2000, "length_bits": 2,
                     "release_us": triples[sid][0], "deadline_us": triples[sid][1]}
                    for sid in ids
                ],
                "variants": [list(ids)],
            })
            first = next(sid for sid in ids if sid in "xyz")
            with pytest.raises(InfeasibleSignalError, match=f"^signal {first}: "):
                schedule(inst, OrderingStrategy.FFC)

    @pytest.mark.parametrize("strat", list(OrderingStrategy))
    @pytest.mark.parametrize("source", REFERENCE_SOURCES)
    def test_matches_reference(self, source, strat):
        # each strategy's schedule is feasible and equals the naive first
        # fit of the same signal order, placement for placement
        for inst in REFERENCE_SOURCES[source]():
            res = schedule(inst, strat)
            assert validate_multischedule(
                res.multischedule.placement_records, res.multischedule.slot_nodes, inst
            ) == []
            order = sort_signals(inst.signals, strat, windows_of(inst))
            ref_placements, ref_slots = reference_schedule(inst, order)
            got = {
                sig.id: tuple(pos) for sig, pos in res.multischedule.placement_records
            }
            assert got == ref_placements
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

    def test_wall_time_recorded(self, example1):
        res = schedule(example1, OrderingStrategy.FFC)
        assert res.wall_time_s >= 0.0
