import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraysched.benchgen import (
    CYCLE_US,
    HYPERPERIOD,
    PROFILES,
    BenchmarkProfile,
    generate_instance,
    resample_period,
)
from fraysched.core import load_instance, round_time_constraints


class TestResamplePeriod:
    @pytest.mark.parametrize(
        "raw_ms,expected_ms",
        [(1000, 320), (5, 5), (7, 5), (10, 10), (20, 20), (100, 80), (640, 320)],
    )
    def test_known_values(self, raw_ms, expected_ms):
        assert resample_period(raw_ms * 1000, 5000, 64) == expected_ms * 1000

    @given(raw=st.integers(min_value=0, max_value=10_000_000))
    @settings(max_examples=300)
    def test_result_is_admissible(self, raw):
        got = resample_period(raw, 5000, 64)
        factor = got // 5000
        assert got % 5000 == 0
        assert factor & (factor - 1) == 0  # power of two
        assert 5000 <= got <= 5000 * 64
        assert got <= raw or got == 5000
        assert resample_period(got, 5000, 64) == got  # idempotent


class TestProfiles:
    def test_profile_table(self):
        assert PROFILES["set1"].node_count == 3
        assert PROFILES["set1"].payload_bits == 32
        assert PROFILES["set3"].deadline_policy == "last_third"
        assert PROFILES["set5"].node_count == 6
        assert PROFILES["set5"].payload_bits == 64
        assert PROFILES["set7"].node_count == 23
        assert PROFILES["1ecu500"].node_count == 1
        assert PROFILES["1ecu3000"].payload_bits == 128
        for p in PROFILES.values():
            assert p.variants == 20
            assert p.variant_prob_max == 0.7

    def test_set5_shape(self):
        doc = generate_instance(PROFILES["set5"], seed=1)
        inst = load_instance(doc)
        assert inst.config.payload_bits == 64
        assert {s.node for s in inst.signals} <= set(range(1, 7))
        assert all(s.release_us <= 4 * CYCLE_US for s in inst.signals)
        # no explicit deadline policy: deadline equals the period
        assert all(s.deadline_us == s.period_us for s in inst.signals)

    def test_1ecu3000_shape(self):
        doc = generate_instance(PROFILES["1ecu3000"], seed=0)
        inst = load_instance(doc)
        assert {s.node for s in inst.signals} == {1}
        assert inst.config.payload_bits == 128
        assert 2800 <= len(inst.signals) <= 3200

    def test_signal_counts_in_documented_range(self):
        for name in ("set1", "1ecu500"):
            profile = PROFILES[name]
            lo, hi = profile.signal_count_range
            for seed in range(100):
                doc = generate_instance(profile, seed)
                assert lo <= len(doc["signals"]) <= hi
        for name in ("set5", "set7", "1ecu3000"):
            profile = PROFILES[name]
            lo, hi = profile.signal_count_range
            for seed in range(10):
                assert lo <= len(generate_instance(profile, seed)["signals"]) <= hi


class TestGeneratorContract:
    def test_same_seed_same_bytes(self):
        a = json.dumps(generate_instance(PROFILES["set2"], 7), sort_keys=True)
        b = json.dumps(generate_instance(PROFILES["set2"], 7), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = json.dumps(generate_instance(PROFILES["set2"], 7), sort_keys=True)
        b = json.dumps(generate_instance(PROFILES["set2"], 8), sort_keys=True)
        assert a != b

    def test_meta_records_provenance(self):
        doc = generate_instance(PROFILES["set3"], 13)
        assert doc["meta"]["profile"] == "set3"
        assert doc["meta"]["seed"] == 13

    def test_every_profile_loads_and_has_full_coverage(self):
        for name, profile in PROFILES.items():
            for seed in (0, 1):
                doc = generate_instance(profile, seed)
                inst = load_instance(doc)  # raises on any invariant breach
                covered = set().union(*inst.variants)
                assert covered == {s.id for s in inst.signals}

    def test_windows_are_schedulable(self):
        # every generated signal must survive time-constraint rounding
        for name in ("set2", "set3", "1ecu500"):
            doc = generate_instance(PROFILES[name], 4)
            inst = load_instance(doc)
            for s in inst.signals:
                win = round_time_constraints(s, inst.config)
                assert win.release_cycle <= win.deadline_cycle

    def test_periods_on_grid(self):
        doc = generate_instance(PROFILES["set1"], 2)
        for sig in doc["signals"]:
            factor = sig["period_us"] // CYCLE_US
            assert sig["period_us"] % CYCLE_US == 0
            assert factor & (factor - 1) == 0
            assert factor <= HYPERPERIOD

    def test_custom_profile(self):
        profile = BenchmarkProfile(
            "tiny", 2, (20, 30), 16, "first_five_cycles", "last_third"
        )
        inst = load_instance(generate_instance(profile, 0))
        assert 20 <= len(inst.signals) <= 30
        for s in inst.signals:
            assert s.deadline_us <= s.period_us
            assert 3 * s.deadline_us >= 2 * s.period_us or s.deadline_us >= CYCLE_US
