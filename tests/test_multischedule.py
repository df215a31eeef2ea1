import copy
import dataclasses
import gc
import json
import random
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraysched.core import (
    ALLOWED_HYPERPERIODS,
    MAX_PAYLOAD_BITS,
    CycleWindow,
    FlexRayConfig,
    load_instance,
    round_time_constraints,
)
from fraysched.benchgen import PROFILES, generate_instance
from fraysched import core, multischedule
from fraysched.exclusion import ConflictModel, compute_mems
from fraysched.multischedule import (
    Multischedule,
    Placement,
    ScheduleError,
    extract_native_schedule,
    find_position_for_signal,
    place_signal_to_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from fraysched.scheduler import OrderingStrategy, schedule, sort_signals
from fraysched.validator import validate_multischedule

from oracles import (
    conflict_tables,
    frame_mask,
    frame_view,
    make_random_instance,
    naive_first_fit_offset,
    native_doc,
    node_split_instances,
    reference_schedule_from_dict,
    signals_conflict,
    with_mixed_nodes,
)
from conftest import first_fit, shared_int_doc


def build(example1):
    mems = compute_mems(example1)
    windows = {s.id: round_time_constraints(s, example1.config) for s in example1.signals}
    ms = Multischedule(example1.config, windows, mems)
    return ms, mems, {s.id: s for s in example1.signals}


def search_frame(entries, signal, mems, width):
    """The search for `signal` in a one-cycle slot whose one frame holds
    `entries` (id, offset, length), as the signal's variants see them."""
    free = ((1 << width) - 1) & ~frame_mask(entries, mems.variants_of, signal.id)
    return first_fit(FlexRayConfig(1000, 1, width), free, signal.length_bits)


class TestFirstFitSearch:
    def test_empty_frame(self, example1):
        ms, mems, sig = build(example1)
        assert search_frame([], sig["A"], mems, 16) == Placement(0, 0, 0)

    def test_conflicting_resident_blocks(self, example1):
        ms, mems, sig = build(example1)
        assert search_frame([("B", 0, 8)], sig["C"], mems, 16) == Placement(0, 0, 8)

    def test_overlap_allowed_when_never_covariant(self, example1):
        ms, mems, sig = build(example1)
        # E never shares a variant with A, so the frame looks empty to it
        assert search_frame([("A", 0, 8)], sig["E"], mems, 16) == Placement(0, 0, 0)

    def test_full_frame_gives_not_found(self, example1):
        ms, mems, sig = build(example1)
        frame = [("B", 0, 8), ("C", 8, 8)]
        assert search_frame(frame, sig["F"], mems, 16) is None

    def test_minimality_against_brute_scan(self):
        rng = random.Random(31337)
        for _ in range(150):
            inst = make_random_instance(rng, max_signals=8)
            mems = compute_mems(inst)
            _, _, sig_conflict, _ = conflict_tables(inst)
            width = inst.config.payload_bits
            frame = []
            residents = [s for s in inst.signals if rng.random() < 0.5]
            for s in residents:
                off = rng.randint(0, width - s.length_bits)
                frame.append((s.id, off, s.length_bits))
            for s in inst.signals:
                if s.id in {r.id for r in residents}:
                    continue
                got = search_frame(frame, s, mems, width)
                want = naive_first_fit_offset(
                    frame, s.id, s.length_bits, width, sig_conflict
                )
                assert got == (None if want is None else Placement(0, 0, want))

    @given(data=st.data())
    @settings(max_examples=400)
    def test_search_matches_frame_scan(self, data):
        # the search's packed whole-window candidate mask against a
        # per-frame, per-offset scan: random occupancy, lengths 1..W and
        # random windows
        width = data.draw(st.sampled_from([1, 3, 8, 16, 32, 64, 128]))
        hyper = data.draw(st.sampled_from([1, 2, 4, 8, 16, 64]))
        full = (1 << width) - 1
        frame = st.one_of(
            st.just(0),
            st.just(full),
            st.integers(0, full),
            st.tuples(st.integers(0, full), st.integers(0, full)).map(
                lambda ab: ab[0] & ab[1]
            ),
        )
        frames = data.draw(st.lists(frame, min_size=hyper, max_size=hyper))
        length = data.draw(st.integers(1, width))
        lo = data.draw(st.integers(0, hyper - 1))
        hi = data.draw(st.integers(lo, hyper - 1))
        config = FlexRayConfig(1000, hyper, width)
        free = ((1 << (hyper * width)) - 1) & ~sum(f << (c * width) for c, f in enumerate(frames))
        want = (1 << length) - 1
        expected = next(
            (
                Placement(0, c, o)
                for c in range(lo, hi + 1)
                for o in range(width - length + 1)
                if not frames[c] & (want << o)
            ),
            None,
        )
        assert first_fit(config, free, length, lo, hi) == expected


class TestFindPosition:
    def test_empty_multischedule(self, example1):
        ms, mems, sig = build(example1)
        assert find_position_for_signal(ms, sig["A"]) is None

    def test_node_conflict_skips_slots(self, example1):
        ms, mems, sig = build(example1)
        for sid in ("A", "B", "C", "F", "D"):
            place_signal_to_schedule(ms, sig[sid])
        # both allocated slots belong to node 1; G transmits from node 2
        assert len(ms.slots) == 2
        assert find_position_for_signal(ms, sig["G"]) is None

    def test_e_lands_in_second_slot_over_transparent_resident(self, example1):
        ms, mems, sig = build(example1)
        for sid in ("A", "B", "C", "F", "D"):
            place_signal_to_schedule(ms, sig[sid])
        pos = find_position_for_signal(ms, sig["E"])
        assert pos == Placement(slot=1, first_cycle=2, offset_bits=0)
        resident = {e.signal for e in frame_view(ms)[1][2]}
        assert resident == {"D"}
        assert not signals_conflict(mems, "D", "E")


class TestOpenSlots:
    @given(inst=node_split_instances(), strategy=st.sampled_from(list(OrderingStrategy)))
    @settings(max_examples=200, deadline=None)
    def test_closed_slots_match_a_recount_after_every_placement(self, inst, strategy):
        mems = compute_mems(inst)
        windows = {s.id: round_time_constraints(s, inst.config) for s in inst.signals}
        ms = Multischedule(inst.config, windows, mems)
        for sig in sort_signals(inst.signals, strategy, windows):
            place_signal_to_schedule(ms, sig)
            hosted = [set() for _ in ms.slots]
            for placed, pos in ms.placement_records:
                hosted[pos.slot].add(placed.node)
            assert ms.slot_nodes == hosted
            everything = (1 << len(ms.slots)) - 1
            for node, own in mems.node_mask.items():
                want = sum(
                    1 << i
                    for i, nodes in enumerate(hosted)
                    if not any(o != node and mems.node_mask[o] & own for o in nodes)
                )
                assert everything & ~ms.closed.get(node, 0) == want

    def test_third_node_kept_out_of_a_shared_slot(self):
        # nodes 1 and 2 never meet, so they share slot 0; node 3 meets node 2
        # in variant 1 and must stay out of slot 0, though its bits are free
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 1, "payload_bits": 8},
            "signals": [
                {"id": "a", "node": 1, "period_us": 1000, "length_bits": 4},
                {"id": "b", "node": 2, "period_us": 1000, "length_bits": 4},
                {"id": "c", "node": 3, "period_us": 1000, "length_bits": 4},
                {"id": "e", "node": 3, "period_us": 1000, "length_bits": 2},
            ],
            "variants": [["a"], ["b", "c", "e"]],
        }
        inst = load_instance(doc)
        ms, mems, sig = build(inst)
        assert place_signal_to_schedule(ms, sig["a"]) == Placement(0, 0, 0)
        assert place_signal_to_schedule(ms, sig["b"]) == Placement(0, 0, 0)
        assert ms.slot_nodes[0] == {1, 2}
        assert ms.closed == {3: 0b1}
        assert place_signal_to_schedule(ms, sig["c"]) == Placement(1, 0, 0)
        assert ms.closed == {3: 0b1, 2: 0b10}
        assert find_position_for_signal(ms, sig["e"]) == Placement(1, 0, 4)
        assert place_signal_to_schedule(ms, sig["e"]) == Placement(1, 0, 4)
        assert len(ms.slots) == 2
        # node 1 meets neither of the others, so both slots stay open to it
        assert 1 not in ms.closed


class TestPlaceSignal:
    def test_first_signal_opens_slot_with_job_every_cycle(self, example1):
        ms, mems, sig = build(example1)
        pos = place_signal_to_schedule(ms, sig["A"])
        assert pos == Placement(0, 0, 0)
        assert len(ms.slots) == 1
        for frame in frame_view(ms)[0]:
            assert [e.signal for e in frame] == ["A"]

    def test_nodes_may_share_slot_when_never_covariant(self, example1):
        ms, mems, sig = build(example1)
        for sid in ("A", "B", "C", "F", "D", "E", "G"):
            place_signal_to_schedule(ms, sig[sid])
        pos_g = {s.id: p for s, p in ms.placement_records}["G"]
        pos_h = place_signal_to_schedule(ms, sig["H"])
        assert pos_h.slot == pos_g.slot
        assert ms.slot_nodes[pos_h.slot] == {2, 3}

    def test_candidate_rejected_on_later_job_collision(self):
        # two-cycle bus; X's first candidate fits cycle 0 but its second job
        # collides in cycle 1, so the search must go on past the candidate
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
            "signals": [
                {"id": "P1", "node": 1, "period_us": 2000, "length_bits": 4,
                 "release_us": 1000, "deadline_us": 1000},
                {"id": "P2", "node": 1, "period_us": 2000, "length_bits": 8,
                 "release_us": 1000, "deadline_us": 1000},
                {"id": "X", "node": 1, "period_us": 1000, "length_bits": 4},
            ],
            "variants": [["X", "P1"], ["P1", "P2"]],
        }
        inst = load_instance(doc)
        mems = compute_mems(inst)
        windows = {s.id: round_time_constraints(s, inst.config) for s in inst.signals}
        ms = Multischedule(inst.config, windows, mems)
        by_id = {s.id: s for s in inst.signals}
        assert place_signal_to_schedule(ms, by_id["P1"]) == Placement(0, 1, 0)
        assert place_signal_to_schedule(ms, by_id["P2"]) == Placement(1, 1, 0)

        x = by_id["X"]
        assert windows["X"] == CycleWindow(0, 0, 1)  # jobs in cycles 0 and 1
        free = ms.heads[-1]  # slot 0 as X's variants see it
        for v in mems.variants_of["X"]:
            free &= ms.slots[0][v]
        # slot 0, cycle 0, offset 0 looks fine for job 0 only
        assert first_fit(inst.config, free, x.length_bits) == Placement(0, 0, 0)
        pos = find_position_for_signal(ms, x)
        assert pos == Placement(1, 0, 0)  # the next candidate, over P2
        assert place_signal_to_schedule(ms, x) == pos
        assert ms.placement_records[-1] == (x, pos)
        assert len(ms.slots) == 2

class TestFreeBits:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_commit_clears_exactly_the_job_ranges(self, seed):
        # after every placement each slot's free bits of a variant only
        # shrink, and they are all bits but the union of that variant's
        # job ranges, rebuilt from the records and the raw variant lists
        inst = with_mixed_nodes(make_random_instance(random.Random(seed), max_nodes=4))
        mems = compute_mems(inst)
        windows = {s.id: round_time_constraints(s, inst.config) for s in inst.signals}
        H, W = inst.config.hyperperiod_cycles, inst.config.payload_bits
        count = len(inst.variants)
        for strategy in OrderingStrategy:
            ms = Multischedule(inst.config, windows, mems)
            before: list[dict] = []
            for sig in sort_signals(inst.signals, strategy, windows):
                place_signal_to_schedule(ms, sig)
                used = [[0] * count for _ in ms.slots]
                for placed, pos in ms.placement_records:
                    period = placed.period_us // inst.config.cycle_us
                    run = (1 << placed.length_bits) - 1
                    for j, group in enumerate(inst.variants):
                        if placed.id in group:
                            for c in range(pos.first_cycle, H, period):
                                used[pos.slot][j] |= run << (c * W + pos.offset_bits)
                now = [dict(enumerate(slot)) for slot in ms.slots]
                for i, free in enumerate(now):
                    old = before[i] if i < len(before) else {}
                    for j in range(count):
                        bits = free.get(j, ms.heads[-1])
                        assert bits & old.get(j, ms.heads[-1]) == bits
                        assert bits == ms.heads[-1] & ~used[i][j]
                before = now

class TestSlotPeriod:
    @given(seed=st.integers(0, 10**6), strategy=st.sampled_from(list(OrderingStrategy)))
    @settings(max_examples=150, deadline=None)
    def test_period_is_the_longest_resident_period(self, seed, strategy):
        # the search skips the later-job check on this figure, so it must
        # follow every commit, in every order
        inst = with_mixed_nodes(make_random_instance(random.Random(seed), max_nodes=4))
        mems = compute_mems(inst)
        windows = {s.id: round_time_constraints(s, inst.config) for s in inst.signals}
        ms = Multischedule(inst.config, windows, mems)
        for sig in sort_signals(inst.signals, strategy, windows):
            place_signal_to_schedule(ms, sig)
            want = [1] * len(ms.slots)
            for placed, pos in ms.placement_records:
                want[pos.slot] = max(want[pos.slot], windows[placed.id].period_cycles)
            assert ms.periods == want

    @pytest.mark.parametrize("profile", ["set1", "set5", "1ecu500"])
    @pytest.mark.parametrize("strategy", [OrderingStrategy.FFC, OrderingStrategy.FFP])
    def test_period_ordered_strategies_skip_the_later_job_check(self, profile, strategy):
        # FFP and FFC place by non-decreasing period, FFC per node, so every
        # slot the search may visit holds no resident with a longer period
        # than the signal's.  FFC leaves longer periods in slots of nodes
        # placed earlier; benchgen's nodes all share a variant, which closes
        # those slots to every later node.
        small = dataclasses.replace(PROFILES[profile], signal_count_range=(150, 150))
        for seed in range(2):
            inst = load_instance(generate_instance(small, seed))
            mems = compute_mems(inst)
            windows = {s.id: round_time_constraints(s, inst.config) for s in inst.signals}
            ms = Multischedule(inst.config, windows, mems)
            longer = 0
            for sig in sort_signals(inst.signals, strategy, windows):
                period = windows[sig.id].period_cycles
                closed = ms.closed.get(sig.node, 0)
                longer += sum(
                    slot_period > period
                    for i, slot_period in enumerate(ms.periods)
                    if not closed >> i & 1
                )
                place_signal_to_schedule(ms, sig)
            assert longer == 0
            assert len({s.period_us for s in inst.signals}) > 1
            assert len(ms.slots) > 1


class TestExtraction:
    def test_overlap_disappears_inside_variant(self, example1):
        # a third, empty variant changes no placement and keeps the slot grid
        with_empty = example1._replace(variants=example1.variants + (frozenset(),))
        for inst in (example1, with_empty):
            ms = schedule(inst, OrderingStrategy.FFP).multischedule
            placements = {s.id: p for s, p in ms.placement_records}
            pos_e = placements["E"]
            pos_d = placements["D"]
            # multischedule stores them on top of each other ...
            assert (pos_e.slot, pos_e.first_cycle) == (pos_d.slot, pos_d.first_cycle)
            # ... but variant II does not contain D
            native1 = extract_native_schedule(ms, 1)
            slot_e = native1["slots"][pos_e.slot]
            assert {p["signal"] for p in slot_e["placements"]} == {"E", "F"}
            # each native holds its variant's signals at their multischedule
            # positions, in every slot
            for j in range(len(inst.variants)):
                assert extract_native_schedule(ms, j) == native_doc(ms, j, inst.variants)

    @pytest.mark.parametrize("variant", [-1, 2])
    def test_variant_out_of_range_raises(self, example1, variant):
        # example1 has variants 0 and 1 only; -1 must not wrap round to
        # the multischedule document, the first one rendered
        ms = schedule(example1, OrderingStrategy.FFP).multischedule
        with pytest.raises(IndexError, match=f"variant {variant} out of range"):
            extract_native_schedule(ms, variant)


class TestPatternTable:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_pattern_bits(self, data):
        # bit c * W + o of pattern(p, L) is set iff c % p == 0 and o < L;
        # pattern(1, W - L + 1) sets exactly the offsets o <= W - L
        hyper = data.draw(st.sampled_from(ALLOWED_HYPERPERIODS))
        width = data.draw(st.integers(1, MAX_PAYLOAD_BITS))
        period = data.draw(
            st.sampled_from([p for p in ALLOWED_HYPERPERIODS if p <= hyper])
        )
        length = data.draw(st.integers(1, width))
        ms = Multischedule(FlexRayConfig(1000, hyper, width), {}, ConflictModel({}, {}, 0))
        jobs = ms.patterns.pattern(period, length)
        fits = ms.patterns.pattern(1, width - length + 1)
        frame = (1 << width) - 1
        for c in range(hyper):
            assert (jobs >> (c * width)) & frame == (
                (1 << length) - 1 if c % period == 0 else 0
            )
            assert (fits >> (c * width)) & frame == (1 << (width - length + 1)) - 1
        assert jobs >> (hyper * width) == 0
        assert fits >> (hyper * width) == 0
        # the table entry the search and the commit read holds both
        assert ms.patterns[period, length][:2] == (jobs, fits)

    def test_shift_table(self):
        # run doubling is exact when no step is longer than the run built
        # so far, and the run reaches `length` bits when the steps add up
        # to length - 1; every frame length the config admits is checked
        ms = Multischedule(FlexRayConfig(1000, 1, MAX_PAYLOAD_BITS), {}, ConflictModel({}, {}, 0))
        for length in range(1, MAX_PAYLOAD_BITS + 1):
            shifts = ms.patterns[1, length][2]
            run = 1
            for step in shifts:
                assert 1 <= step <= run
                run += step
            assert run == length
            assert len(shifts) <= length.bit_length()

def test_multischedule_is_freed_without_the_collector(example1):
    # the CLI schedules with the cyclic collector paused, so a reference
    # cycle through the multischedule (such as its pattern table holding a
    # bound method of it) would keep every slot's bits alive
    was = gc.isenabled()
    gc.disable()
    try:
        ms = schedule(example1, OrderingStrategy.FFL).multischedule
        assert ms.patterns
        ref = weakref.ref(ms)
        del ms
        assert ref() is None
    finally:
        if was:
            gc.enable()


def test_commit_memory_follows_the_placements():
    # the commit, and the validator's occupancy pass, give variants that
    # held one int one result, so a slot holds two ints, not 200 copies
    inst = load_instance(shared_int_doc())
    tracemalloc.start()
    try:
        ms = schedule(inst, OrderingStrategy.FFC).multischedule
        schedule_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        violations = validate_multischedule(ms.placement_records, ms.slot_nodes, inst)
        validate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert schedule_peak < 40e6
    assert validate_peak < 40e6
    assert len(ms.slots) == 100
    assert violations == []


def test_slot_count(example1):
    ms, mems, sig = build(example1)
    assert len(ms.slots) == 0
    place_signal_to_schedule(ms, sig["A"])
    assert len(ms.slots) == 1
    res = schedule(example1, OrderingStrategy.FFP)
    assert res.slot_count == len(res.multischedule.slots) == 3


@pytest.mark.parametrize("strategy", list(OrderingStrategy))
def test_document_roundtrip(example1, strategy):
    # the document lists each slot's placements in commit order, so the
    # parsed records are the engine's, ordered by slot; `mixed` has int and
    # str node ids, and one slot shared by two nodes under every strategy
    rng = random.Random(137)
    mixed = with_mixed_nodes(make_random_instance(rng, max_signals=20, max_nodes=4))
    for inst in (example1, mixed):
        ms = schedule(inst, strategy).multischedule
        doc = json.loads(json.dumps(schedule_to_dict(ms)))
        records, slot_nodes = schedule_from_dict(doc, inst)
        assert records == sorted(ms.placement_records, key=lambda r: r[1].slot)
        assert slot_nodes == ms.slot_nodes


def _slot(i, **values):
    return lambda d: d["slots"][i].update(values)


def _placement(**values):
    """The edit that sets `values` in slot 0's first placement."""
    return lambda d: d["slots"][0]["placements"][0].update(values)


def _rename_placement_key(old, new, **values):
    def edit(d):
        placement = d["slots"][0]["placements"][0]
        placement[new] = placement.pop(old)
        placement.update(values)
    return edit


INSTANCE_CONFIG = ("{'cycle_us': 5000, 'hyperperiod_cycles': 4, 'payload_bits': 16, "
                   "'static_slots': 75, 'slot_us': 40}")
# the FFP document's config, keys sorted, with its payload_bits and static_slots
RENDERED_CONFIG = ("{'cycle_us': 5000, 'hyperperiod_cycles': 4, 'payload_bits': %r, "
                   "'slot_us': 40, 'static_slots': %r}")


def _differs(stated):
    return f"schedule config {stated} differs from the instance config {INSTANCE_CONFIG}"


# id -> (document, edit, the reader's text), each read against example 1's
# instance.  The documents are example 1's reference schedule, its FFP
# schedule as rendered, and an empty object.
READER_RULES = {
    "unknown-signal": ("reference", lambda d: d["slots"][0]["placements"].append(
        {"signal": "QQ", "first_cycle": 0, "offset_bits": 0}
    ), "schedule references unknown signal 'QQ'"),
    "slot-not-object": ("bare", lambda d: d.update(slots=[[1, 2]]),
                        "slot 0: a slot must be an object with a 'placements' list"),
    "placement-not-object": ("bare", lambda d: d.update(slots=[{"placements": [5]}]),
                             "slot 0: a placement must be an object"),
    "slots-not-list": ("bare", lambda d: d.update(slots=5),
                       "schedule document must be an object with a 'slots' list"),
    **{
        name: ("reference", _placement(**{key: value}),
               "malformed placement for A: first_cycle and offset_bits must be integers, "
               f"not {text}")
        for name, key, value, text in [
            ("bool-cycle", "first_cycle", True, "True and 0"),
            ("bool-offset", "offset_bits", False, "0 and False"),
            ("float-offset", "offset_bits", 0.0, "0 and 0.0"),
            ("str-cycle", "first_cycle", "0", "'0' and 0"),
        ]
    },
    "placement-typo": ("reference",
                       lambda d: [s.update(placement=s.pop("placements")) for s in d["slots"]],
                       "slot 0: unknown key 'placement'"),
    "document-key": ("reference", lambda d: d.update(variant=5),
                     "schedule document: unknown key 'variant'"),
    "slot-key": ("reference", _slot(1, bogus=1), "slot 1: unknown key 'bogus'"),
    "placement-key": ("reference", _placement(note="x"), "slot 0: placement: unknown key 'note'"),
    "placement-key-for-missing": ("reference", _rename_placement_key("first_cycle", "first"),
                                  "slot 0: placement: unknown key 'first'"),
    "signal-key-for-missing": ("reference", _rename_placement_key("signal", "sig"),
                               "slot 0: placement: unknown key 'sig'"),
    "placement-key-before-unknown-signal": (
        "reference", _rename_placement_key("offset_bits", "offset", signal="QQ"),
        "slot 0: placement: unknown key 'offset'",
    ),
    "offset-key-typo": ("reference", _rename_placement_key("offset_bits", "offset_bit"),
                        "slot 0: placement: unknown key 'offset_bit'"),
    **{
        f"index-{name}": ("ffp", _slot(1, index=index), f"slot 1: index is {text}, expected 1")
        for name, index, text in [("7", 7, "7"), ("0", 0, "0"), ("str", "1", "'1'"),
                                  ("float", 1.0, "1.0"), ("bool", True, "True")]
    },
    "config-payload-64": ("ffp", lambda d: d["config"].update(payload_bits=64),
                          _differs(RENDERED_CONFIG % (64, 75))),
    "config-payload-float": ("ffp", lambda d: d["config"].update(payload_bits=16.0),
                             _differs(RENDERED_CONFIG % (16.0, 75))),
    "config-bool-slots": ("ffp", lambda d: d["config"].update(static_slots=True),
                          _differs(RENDERED_CONFIG % (16, True))),
    "config-missing-key": ("ffp", lambda d: d["config"].pop("slot_us"), _differs(
        "{'cycle_us': 5000, 'hyperperiod_cycles': 4, 'payload_bits': 16, 'static_slots': 75}"
    )),
    "config-extra-key": ("ffp", lambda d: d["config"].update(extra=1), _differs(
        "{'cycle_us': 5000, 'hyperperiod_cycles': 4, 'payload_bits': 16, 'slot_us': 40, "
        "'static_slots': 75, 'extra': 1}"
    )),
    "config-not-an-object": ("ffp", lambda d: d.update(config=[16]), _differs("[16]")),
    **{
        f"nodes-{name}": ("ffp", _slot(0, nodes=nodes),
                          f"slot 0: nodes must be a list of node ids, not {nodes!r}")
        for name, nodes in [("list-entry", [[1]]), ("object-entry", [{"n": 1}]), ("int", 1),
                            ("null", None), ("bool", [True]), ("empty-str", [""]),
                            ("float", [1.5])]
    },
}


@pytest.mark.parametrize(
    "base, edit, message", list(READER_RULES.values()), ids=list(READER_RULES)
)
def test_reader_rules(example1, example1_schedule_doc, base, edit, message):
    docs = {
        "reference": example1_schedule_doc,
        "ffp": schedule_to_dict(schedule(example1, OrderingStrategy.FFP).multischedule),
        "bare": {},
    }
    doc = copy.deepcopy(docs[base])
    edit(doc)
    with pytest.raises(ScheduleError) as read:
        schedule_from_dict(doc, example1)
    assert str(read.value) == message


# One fault at a time for the schedule reader: each edit takes a seeded rng
# and a rendered document and changes one thing in place (a few edits,
# such as a dropped slot key or a duplicate placement, leave it readable).
_DOC_KEYS = ("config", "slots")
_SLOT_KEYS = ("index", "nodes", "placements")
_PLACEMENT_KEYS = ("signal", "first_cycle", "offset_bits")
_OTHER_VALUES = (None, True, False, 1.5, "7", 7, -1, [], [7], {}, {"k": 1})


def _a_slot(rng, doc):
    return rng.choice(doc["slots"])


def _a_placement(rng, doc):
    return rng.choice([p for s in doc["slots"] for p in s["placements"]])


def _drop(target, keys):
    return lambda rng, doc: target(rng, doc).pop(rng.choice(keys))


def _rename(target, keys):
    def edit(rng, doc):
        holder, key = target(rng, doc), rng.choice(keys)
        holder[rng.choice([key + "s", key[:-1], key.upper()])] = holder.pop(key)
    return edit


def _retype(target, keys):
    def edit(rng, doc):
        target(rng, doc)[rng.choice(keys)] = rng.choice(_OTHER_VALUES)
    return edit


def _renumber(rng, doc):
    # a number of the same value in another JSON type: bool, float or str
    placement = _a_placement(rng, doc)
    key = rng.choice(("first_cycle", "offset_bits"))
    value = placement[key]
    placement[key] = rng.choice([bool(value), not value, float(value), str(value)])


def _replace_item(rng, items):
    items[rng.randrange(len(items))] = rng.choice([[], 1, None, "x", [{}]])


READER_EDITS = {
    "drop a document key": _drop(lambda rng, doc: doc, _DOC_KEYS),
    "rename a document key": _rename(lambda rng, doc: doc, _DOC_KEYS),
    "retype a document key": _retype(lambda rng, doc: doc, _DOC_KEYS),
    "drop a slot key": _drop(_a_slot, _SLOT_KEYS),
    "rename a slot key": _rename(_a_slot, _SLOT_KEYS),
    "retype a slot key": _retype(_a_slot, _SLOT_KEYS),
    "drop a placement key": _drop(_a_placement, _PLACEMENT_KEYS),
    "rename a placement key": _rename(_a_placement, _PLACEMENT_KEYS),
    "retype a placement key": _retype(_a_placement, _PLACEMENT_KEYS),
    "extra slot key": lambda rng, doc: _a_slot(rng, doc).update(bogus=1),
    "extra placement key": lambda rng, doc: _a_placement(rng, doc).update(bogus=1),
    "bool, float or str number": _renumber,
    "bool, float or str index": lambda rng, doc: _a_slot(rng, doc).update(
        index=rng.choice([True, False, 0.0, 1.0, "0", "1"])
    ),
    "unknown signal": lambda rng, doc: _a_placement(rng, doc).update(
        signal=rng.choice(["zz", "", "T00"])
    ),
    "index mismatch": lambda rng, doc: _a_slot(rng, doc).__setitem__(
        "index", rng.choice([-1, len(doc["slots"]), len(doc["slots"]) + 5])
    ),
    "nodes missing": lambda rng, doc: _a_slot(rng, doc).pop("nodes"),
    "nodes not a list": lambda rng, doc: _a_slot(rng, doc).update(
        nodes=rng.choice([1, "1", None, {"1": 1}, (1,)])
    ),
    "nodes holding true": lambda rng, doc: _a_slot(rng, doc)["nodes"].insert(0, True),
    "nodes holding an empty string": lambda rng, doc: _a_slot(rng, doc)["nodes"].append(""),
    "non-dict slot": lambda rng, doc: _replace_item(rng, doc["slots"]),
    "non-dict placement": lambda rng, doc: _replace_item(
        rng, rng.choice([s for s in doc["slots"] if s["placements"]])["placements"]
    ),
    "empty placements": lambda rng, doc: _a_slot(rng, doc).update(placements=[]),
    "duplicate placement": lambda rng, doc: rng.choice(doc["slots"])["placements"].append(
        dict(_a_placement(rng, doc))
    ),
    "no slots": lambda rng, doc: doc.update(slots=[]),
    "no edit": lambda rng, doc: None,
}


def _read(doc, inst, read=schedule_from_dict):
    """(records, slot_nodes) of the document, or its ScheduleError text."""
    try:
        return read(doc, inst)
    except ScheduleError as exc:
        return str(exc)


class TestReaderMatchesReference:
    @given(
        seed=st.integers(0, 10**6),
        edits=st.lists(st.sampled_from(sorted(READER_EDITS)), min_size=1, max_size=2),
        strategy=st.sampled_from(list(OrderingStrategy)),
    )
    @settings(max_examples=400, deadline=None)
    def test_reader_agrees_with_the_per_placement_loop(self, seed, edits, strategy):
        # two edits put a slot fault behind a placement fault of an earlier
        # slot, or the other way round
        rng = random.Random(seed)
        inst = with_mixed_nodes(make_random_instance(rng, max_nodes=4))
        doc = json.loads(json.dumps(schedule_to_dict(schedule(inst, strategy).multischedule)))
        for edit in edits:
            try:
                READER_EDITS[edit](rng, doc)
            except (IndexError, KeyError, AttributeError, TypeError, ValueError):
                pass  # the first edit left nothing for the second to change
        got = _read(doc, inst)
        assert _read(doc, inst, reference_schedule_from_dict) == got
        if not isinstance(got, str):
            assert all(type(pos) is Placement for _sig, pos in got[0])

    def test_rendered_documents_skip_the_bisection(self):
        # a valid document keeps every rule on its first check, and never
        # enters the bisection that finds a first fault
        rng = random.Random(2025)
        for _ in range(40):
            inst = with_mixed_nodes(make_random_instance(rng, max_nodes=4))
            ms = schedule(inst, OrderingStrategy.FFC).multischedule
            doc = json.loads(next(multischedule.render_documents(ms)))
            with mock.patch.object(core, "_first_failing") as bisect:
                records, slot_nodes = schedule_from_dict(doc, inst)
            assert not bisect.called
            assert records == sorted(ms.placement_records, key=lambda r: r[1].slot)
            assert slot_nodes == ms.slot_nodes
