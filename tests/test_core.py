import copy
import json
import pickle
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraysched import core
from fraysched.core import (
    FlexRayConfig,
    InfeasibleSignalError,
    Instance,
    InstanceError,
    Signal,
    load_instance,
    round_time_constraints,
)

from oracles import instance_to_dict, reference_load_instance

EX1_CONFIG = FlexRayConfig(
    cycle_us=5000, hyperperiod_cycles=4, payload_bits=16, static_slots=75, slot_us=40
)


def make_doc(**overrides):
    doc = {
        "config": {
            "cycle_us": 5000,
            "hyperperiod_cycles": 4,
            "payload_bits": 16,
            "static_slots": 75,
            "slot_us": 40,
        },
        "signals": [
            {"id": "X", "node": 1, "period_us": 10000, "length_bits": 8,
             "release_us": 0, "deadline_us": 10000},
        ],
        "variants": [["X"]],
    }
    doc.update(overrides)
    return doc


class TestLoadInstance:
    def test_example1_matches_parameter_table(self, example1):
        assert len(example1.signals) == 8
        assert len(example1.variants) == 2
        assert example1.config.payload_bits == 16
        assert example1.config.cycle_us == 5000
        by_id = {s.id: s for s in example1.signals}
        assert by_id["A"] == Signal("A", 1, 5000, 8, 0, 5000)
        assert by_id["E"] == Signal("E", 1, 20000, 16, 10000, 15000)
        assert by_id["H"] == Signal("H", 3, 20000, 8, 0, 15000)
        assert example1.variants[0] == frozenset("ABCDFG")
        assert example1.variants[1] == frozenset("BCEFH")

    @pytest.mark.parametrize("node", [0, -3, 7, "gw", "1"])
    def test_int_and_str_nodes_load(self, node):
        doc = make_doc()
        doc["signals"][0]["node"] = node
        assert load_instance(doc).signals[0].node == node

    def test_empty_signal_list_is_valid(self):
        inst = load_instance(make_doc(signals=[], variants=[]))
        assert inst.signals == ()
        assert len(inst.variants) == 0

    def test_signal_in_no_variant_rejected(self):
        doc = make_doc(variants=[[]])
        with pytest.raises(InstanceError, match="not assigned to any variant"):
            load_instance(doc)

    def test_variant_with_unknown_signal_rejected(self):
        doc = make_doc(variants=[["X", "nope"]])
        with pytest.raises(InstanceError, match="unknown signal"):
            load_instance(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(InstanceError):
            load_instance({"config": {}})
        with pytest.raises(InstanceError):
            load_instance([1, 2, 3])

    def test_missing_deadline_defaults_to_period(self):
        doc = make_doc()
        del doc["signals"][0]["deadline_us"]
        del doc["signals"][0]["release_us"]
        inst = load_instance(doc)
        assert inst.signals[0].deadline_us == inst.signals[0].period_us
        assert inst.signals[0].release_us == 0

    def test_config_asdict_is_a_copy_in_field_order(self):
        config = FlexRayConfig(5000, 4, 16, 75, 40)
        doc = config._asdict()
        assert list(doc.items()) == [
            (name, getattr(config, name)) for name in FlexRayConfig._fields
        ]
        doc["cycle_us"] = 1
        doc["extra"] = 2
        assert config == FlexRayConfig(5000, 4, 16, 75, 40)
        assert not hasattr(config, "extra")

    def test_meta_keys_ignored(self):
        doc = make_doc()
        doc["meta"] = {"profile": "x", "seed": 1}
        load_instance(doc)

    def test_roundtrip_identity(self, example1):
        again = load_instance(json.loads(json.dumps(instance_to_dict(example1))))
        assert again == example1


X_RECORD = {"id": "X", "node": 1, "period_us": 10000, "length_bits": 8,
            "release_us": 0, "deadline_us": 10000}


SMALL_CONFIG = {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8}

# whole documents besides example 1's instance: make_doc's one signal X,
# and one and two signals on a small bus
DOCUMENTS = {
    "make_doc": make_doc(),
    "x": {"config": SMALL_CONFIG, "variants": [["x"]],
          "signals": [{"id": "x", "node": 1, "period_us": 1000, "length_bits": 2}]},
    "ab": {"config": SMALL_CONFIG, "variants": [["a", "b"]],
           "signals": [{"id": "a", "node": 1, "period_us": 1000, "length_bits": 4},
                       {"id": "b", "node": 2, "period_us": 1000, "length_bits": 4}]},
}


def _set(where, **values):
    """The edit that sets `values` in the config, or in signal record `where`."""
    return lambda d: (d["config"] if where == "config" else d["signals"][where]).update(values)


def _rename(where, old, new):
    """The edit that renames key `old` of the config or of signal record `where`."""
    def edit(d):
        raw = d["config"] if where == "config" else d["signals"][where]
        raw[new] = raw.pop(old)
    return edit


NODE_TEXT = "signal b: node must be an integer or a non-empty string, not "

# id -> (document, edit, the loader's text)
DOCUMENT_EDITS = {
    "zero-deadline": ("x", _set(0, deadline_us=0), "signal x: deadline must be positive"),
    # the second record fails a column check, and the bisection names it
    "node-list": ("ab", _set(1, node=[1]), NODE_TEXT + "[1]"),
    "node-bool": ("ab", _set(1, node=True), NODE_TEXT + "True"),
    "node-empty-str": ("ab", _set(1, node=""), NODE_TEXT + "''"),
    "duplicate-id": ("ab", _set(1, id="a"), "duplicate signal id 'a'"),
    "signals-int": ("example1", lambda d: d.update(signals=5),
                    "signals must be a list of signal records"),
    "variants-int": ("example1", lambda d: d.update(variants=5),
                     "variants must be a list of signal-id lists"),
    "variant-str": ("example1", lambda d: d["variants"].append("ABCDFG"),
                    "variant 2 must be a list of signal ids, not 'ABCDFG'"),
    "variant-holds-list": ("example1", lambda d: d["variants"][0].append(["A"]),
                           "variant 0: signal ids must be strings, not ['A']"),
    "variant-holds-int": ("example1", lambda d: d["variants"][1].insert(0, 7),
                          "variant 1: signal ids must be strings, not 7"),
    "config-list": ("example1", lambda d: d.update(config=[5000]),
                    "config must be a JSON object"),
    "float-period": ("example1", _set(0, period_us=5000.9),
                     "signal A: period_us must be an integer, not 5000.9"),
    "bool-length": ("example1", _set(0, length_bits=True),
                    "signal A: length_bits must be an integer, not True"),
    "bool-release": ("example1", _set(0, release_us=False),
                     "signal A: release_us must be an integer, not False"),
    "str-deadline": ("example1", _set(0, deadline_us="5000"),
                     "signal A: deadline_us must be an integer, not '5000'"),
    "float-cycle": ("example1", _set("config", cycle_us=5000.0),
                    "config: cycle_us must be an integer, not 5000.0"),
    "bool-hyperperiod": ("example1", _set("config", hyperperiod_cycles=True),
                         "config: hyperperiod_cycles must be an integer, not True"),
    "payload-over-254-bytes": (
        "example1", _set("config", payload_bits=2040),
        "config: payload_bits must be between 1 and 2032 (254 bytes), not 2040",
    ),
    "negative-static-slots": ("example1", _set("config", static_slots=-1),
                              "config: static_slots must be >= 0"),
    "negative-slot-time": ("example1", _set("config", slot_us=-40),
                           "config: slot_us must be >= 0"),
    "bool-static-slots": ("example1", _set("config", static_slots=False),
                          "config: static_slots must be an integer, not False"),
    # a misspelt optional key would otherwise read as an absent one
    "config-typo": ("example1", _rename("config", "static_slots", "static_slot"),
                    "config: unknown key 'static_slot'"),
    "release-typo": ("example1", _rename(0, "release_us", "release_uss"),
                     "signal A: unknown key 'release_uss'"),
    "deadline-typo": ("example1", _rename(0, "deadline_us", "deadline_uss"),
                      "signal A: unknown key 'deadline_uss'"),
    "extra-key": ("example1", _set(0, priority=1), "signal A: unknown key 'priority'"),
    "config-optional": ("make_doc", _rename("config", "static_slots", "static_slot"),
                        "config: unknown key 'static_slot'"),
    "config-required": ("make_doc", _rename("config", "cycle_us", "cycle_uss"),
                        "config: unknown key 'cycle_uss'"),
    "signal-release": ("make_doc", _rename(0, "release_us", "release_uss"),
                       "signal X: unknown key 'release_uss'"),
    "signal-deadline": ("make_doc", _rename(0, "deadline_us", "deadline_uss"),
                        "signal X: unknown key 'deadline_uss'"),
    "signal-extra": ("make_doc", _set(0, note="x"), "signal X: unknown key 'note'"),
    **{
        f"missing-{key}": ("make_doc", lambda d, key=key: d["config"].pop(key),
                           f"malformed config section: {key!r}")
        for key in ("cycle_us", "hyperperiod_cycles", "payload_bits")
    },
}


class TestLoaderAndConstructorAgree:
    """`load_instance` and `Signal(...)` run the same field rules, so a bad
    field gets the same text; the rules that need the whole record or the
    config are the loader's and `Instance`'s."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("id", 5), ("id", True), ("id", ""),
            ("node", 1.5), ("node", True), ("node", ""),
            ("period_us", "10000"), ("period_us", True), ("period_us", 0),
            ("period_us", -10000),
            ("length_bits", 8.0), ("length_bits", True), ("length_bits", 0),
            ("release_us", "0"), ("release_us", False), ("release_us", -1),
            ("deadline_us", None), ("deadline_us", True), ("deadline_us", 0),
            ("deadline_us", -1),
        ],
    )
    def test_bad_field_same_error(self, key, value):
        record = dict(X_RECORD, **{key: value})
        with pytest.raises(InstanceError) as loaded:
            load_instance(make_doc(signals=[record]))
        with pytest.raises(InstanceError) as built:
            Signal(**record)
        assert str(loaded.value) == str(built.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("id"), "malformed signal record: 'id'"),
            (lambda r: r.pop("node"), "malformed signal record: 'node'"),
            (lambda r: r.pop("period_us"), "malformed signal record: 'period_us'"),
            (lambda r: r.pop("length_bits"), "malformed signal record: 'length_bits'"),
            (lambda r: r.update(length_bits=17),
             "signal X: signal exceeds frame payload (17 > 16 bits)"),
            (lambda r: r.update(length_bits=24),
             "signal X: signal exceeds frame payload (24 > 16 bits)"),
            (lambda r: r.update(period_us=15000),
             "signal X: period 15000 us is not cycle * 2^n (cycle = 5000 us)"),
            (lambda r: r.update(period_us=7000),
             "signal X: period 7000 us is not cycle * 2^n (cycle = 5000 us)"),
            (lambda r: r.update(period_us=40000),
             "signal X: period 40000 us exceeds the hyperperiod"),
            *[
                (lambda r, node=node: r.update(node=node),
                 f"signal X: node must be an integer or a non-empty string, not {node!r}")
                for node in ([1], True, False, "", 1.5, None, {"id": 1})
            ],
            # only a missing deadline defaults to the period
            (lambda r: r.update(deadline_us=0), "signal X: deadline must be positive"),
        ],
        ids=["missing-id", "missing-node", "missing-period", "missing-length",
             "payload-too-long", "payload-far-too-long", "period-not-power-of-two",
             "period-off-grid", "period-beyond-hyperperiod", "node-list", "node-true",
             "node-false", "node-empty-str", "node-float", "node-null", "node-object",
             "zero-deadline"],
    )
    def test_document_rules(self, edit, message):
        # the loader's exact text for the rules that need the record or the
        # config, which a Signal lacks, and for the node and deadline rules
        record = dict(X_RECORD)
        edit(record)
        with pytest.raises(InstanceError) as loaded:
            load_instance(make_doc(signals=[record]))
        assert str(loaded.value) == message

    @pytest.mark.parametrize(
        "base, edit, message", list(DOCUMENT_EDITS.values()), ids=list(DOCUMENT_EDITS)
    )
    def test_whole_document_rules(self, example1_instance_path, base, edit, message):
        # the loader's exact text for a fault anywhere in a document: the
        # config, a signal record after the first, or the variants
        docs = dict(DOCUMENTS, example1=json.loads(example1_instance_path.read_text()))
        doc = copy.deepcopy(docs[base])
        edit(doc)
        with pytest.raises(InstanceError) as loaded:
            load_instance(doc)
        assert str(loaded.value) == message

    def test_bad_field_named_before_unknown_key(self):
        record = dict(X_RECORD, length_bits=0, note="x")
        with pytest.raises(InstanceError) as loaded:
            load_instance(make_doc(signals=[record]))
        assert str(loaded.value) == "signal X: length must be >= 1 bit"

    def test_every_field_is_required(self):
        # a defaulted deadline of 0 would fail on a value the caller never gave
        with pytest.raises(TypeError):
            Signal("A", 1, 5000, 8)
        with pytest.raises(TypeError):
            Signal("A", 1, 5000, 8, 0)

    def test_duplicate_id(self):
        for second in (X_RECORD, dict(X_RECORD, node=2)):
            with pytest.raises(InstanceError) as loaded:
                load_instance(make_doc(signals=[X_RECORD, second]))
            assert str(loaded.value) == "duplicate signal id 'X'"

    @pytest.mark.parametrize("period_cycles", [1, 2, 4])
    def test_every_period_up_to_the_hyperperiod_loads(self, period_cycles):
        record = dict(X_RECORD, period_us=5000 * period_cycles, deadline_us=5000)
        assert load_instance(make_doc(signals=[record])).signals == (Signal(**record),)

    def test_loaded_signals_are_signal_values(self, example1_instance_path):
        from fraysched import benchgen

        docs = [
            json.loads(example1_instance_path.read_text()),
            benchgen.generate_instance(benchgen.PROFILES["set5"], 0),
        ]
        for doc in docs:
            loaded = load_instance(doc).signals
            built = tuple(
                Signal(r["id"], r["node"], r["period_us"], r["length_bits"],
                       r.get("release_us", 0), r.get("deadline_us", r["period_us"]))
                for r in doc["signals"]
            )
            assert loaded == built
            assert [s._asdict() for s in loaded] == [s._asdict() for s in built]
            assert {hash(s) for s in loaded} == {hash(s) for s in built}
        sig = loaded[0]
        with pytest.raises(AttributeError):
            sig.node = 99
        moved = sig._replace(node=99)
        assert moved.node == 99 and moved.id == sig.id and sig.node != 99
        with pytest.raises(InstanceError, match="length must be >= 1 bit"):
            sig._replace(length_bits=0)

    def test_every_way_to_make_a_record_checks(self):
        sig = Signal("A", 1, 5000, 8, 0, 5000)
        bad = dict(sig._asdict(), length_bits=0)
        for make in (
            lambda: Signal(**bad),
            lambda: Signal._make(bad.values()),
            lambda: sig._replace(length_bits=0),
        ):
            with pytest.raises(InstanceError, match="length must be >= 1 bit"):
                make()
        for make in (
            lambda: FlexRayConfig._make([0, 4, 16]),
            lambda: EX1_CONFIG._replace(cycle_us=0),
        ):
            with pytest.raises(InstanceError, match="cycle_us must be positive"):
                make()
        inst = Instance(EX1_CONFIG, (sig,), (frozenset("A"),))
        long = sig._replace(length_bits=17)
        for make in (
            lambda: Instance(EX1_CONFIG, (long,), inst.variants),
            lambda: Instance._make([EX1_CONFIG, (long,), inst.variants]),
            lambda: inst._replace(signals=(long,)),
        ):
            with pytest.raises(InstanceError, match="exceeds frame payload"):
                make()
        for value in (sig, EX1_CONFIG, inst):
            again = pickle.loads(pickle.dumps(value))
            assert again == value and type(again) is type(value)
        assert FlexRayConfig(5000, 4, 16) == (5000, 4, 16, 0, 0)


class TestCheckedInstance:
    """`Instance(...)` checks what the loader checks beyond one record, so
    the engine and the validator never meet an instance the loader would
    have refused."""

    CONFIG = FlexRayConfig(1000, 4, 8)

    @pytest.mark.parametrize(
        "signals, variants",
        [
            # off the cycle grid: validate_multischedule divided by a 0-cycle period
            ([Signal("x", 1, 500, 4, 0, 500)], [["x"]]),
            # past the payload: schedule() shifted by a negative count
            ([Signal("x", 1, 1000, 40, 0, 1000)], [["x"]]),
            ([Signal("x", 1, 8000, 4, 0, 1000)], [["x"]]),
            ([Signal("x", 1, 1000, 4, 0, 1000)] * 2, [["x"]]),
            ([Signal("x", 1, 1000, 4, 0, 1000)], [["x", "y"]]),
            ([Signal("x", 1, 1000, 4, 0, 1000)], [["x", 5]]),
            ([Signal("x", 1, 1000, 4, 0, 1000)], ["x"]),
            ([Signal("x", 1, 1000, 4, 0, 1000), Signal("y", 1, 1000, 4, 0, 1000)], [["x"]]),
        ],
        ids=["period-off-grid", "longer-than-payload", "period-past-hyperperiod",
             "duplicate-id", "unknown-member", "non-string-member", "string-variant",
             "uncovered-signal"],
    )
    def test_bad_instance_gets_the_loader_error(self, signals, variants):
        doc = {
            "config": self.CONFIG._asdict(),
            "signals": [s._asdict() for s in signals],
            "variants": variants,
        }
        with pytest.raises(InstanceError) as loaded:
            load_instance(doc)
        with pytest.raises(InstanceError) as built:
            Instance(self.CONFIG, signals, variants)
        assert str(built.value) == str(loaded.value)

    def test_variants_become_frozensets(self):
        sig = Signal("x", 1, 1000, 4, 0, 1000)
        inst = Instance(self.CONFIG, [sig], [["x"], ("x",)])
        assert inst == (self.CONFIG, (sig,), (frozenset("x"), frozenset("x")))


RECORDS_CONFIG = {"cycle_us": 5000, "hyperperiod_cycles": 4, "payload_bits": 16}

# per field, values that break a field rule or a config rule (a bool, a
# float or a string for a number; off the period grid; past the payload),
# and a few valid ones
BAD_VALUES = {
    "id": ["", 5, True, None, "S0"],  # "S0" is a duplicate on any other record
    "node": ["", True, False, 1.5, None, [1], "ecu", 7],
    "period_us": [True, 5000.0, "5000", None, 0, -5000, 2500, 7000, 15000,
                  40000, 80000],
    "length_bits": [True, 8.0, "8", 0, -1, 16, 17],
    "release_us": [False, 0.0, "0", -1, 5000],
    "deadline_us": [True, 5000.0, "5000", None, 0, -1, 1],
}


@st.composite
def signal_records(draw):
    records = []
    for i in range(draw(st.integers(1, 5))):
        period = draw(st.sampled_from([5000, 10000, 20000]))
        record = {"id": f"S{i}", "node": draw(st.sampled_from([1, 2, "ecu"])),
                  "period_us": period, "length_bits": draw(st.integers(1, 16))}
        if draw(st.booleans()):
            record["release_us"] = draw(st.integers(0, period))
        if draw(st.booleans()):
            record["deadline_us"] = draw(st.integers(1, period))
        records.append(record)
    return records


# every edit of one record that the tests below apply
SIGNAL_EDITS = (
    [("set", key, value) for key, values in BAD_VALUES.items() for value in values]
    + [("drop", key) for key in Signal._fields]
    + [("misspell", key) for key in Signal._fields]
    + [("extra", "note"), ("not-a-record", []), ("not-a-record", "S"), ("not-a-record", 1)]
)


def edited(record, op):
    kind, arg = op[0], op[1]
    if not isinstance(record, dict):
        return record
    record = dict(record)
    if kind == "set":
        record[arg] = op[2]
    elif kind == "drop":
        record.pop(arg, None)
    elif kind == "misspell":
        if arg in record:
            record[arg + "s"] = record.pop(arg)
    elif kind == "extra":
        record[arg] = 1
    else:
        return arg
    return record


def load_outcome(doc, load=load_instance):
    try:
        instance = load(doc)
    except InstanceError as exc:
        return "error", str(exc)
    return instance, [type(s) for s in instance.signals]


def assert_loaders_agree(records, variants):
    """The loader and the record-by-record reference give equal instances
    of Signal values, or the same first error."""
    doc = {"config": RECORDS_CONFIG, "signals": records, "variants": variants}
    assert load_outcome(doc) == load_outcome(doc, reference_load_instance)


class TestLoaderMatchesReference:
    """`load_instance` runs the signal table column by column and builds
    the records in one pass; `oracles.reference_load_instance`, which reads
    one record at a time, is the reference."""

    # a full record, one with both optional keys absent, one with a deadline only
    RECORDS = [
        {"id": "S0", "node": 1, "period_us": 5000, "length_bits": 8,
         "release_us": 0, "deadline_us": 5000},
        {"id": "S1", "node": "ecu", "period_us": 10000, "length_bits": 1},
        {"id": "S2", "node": 2, "period_us": 20000, "length_bits": 16,
         "deadline_us": 15000},
    ]

    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("op", SIGNAL_EDITS, ids=repr)
    def test_one_edit_agrees_with_the_per_record_loop(self, op, at):
        records = list(self.RECORDS)
        records[at] = edited(records[at], op)
        assert_loaders_agree(records, [["S0", "S1", "S2"]])

    @pytest.mark.parametrize(
        "before, after",
        [
            (("set", "id", "S0"), ("set", "length_bits", 0)),
            (("set", "length_bits", 17), ("set", "node", True)),
            (("set", "period_us", 40000), ("extra", "note")),
            (("set", "node", True), ("set", "id", "S0")),
        ],
        ids=["duplicate-then-field", "payload-then-field", "grid-then-key",
             "field-then-duplicate"],
    )
    def test_rules_across_records_keep_record_order(self, before, after):
        # a duplicate id, a length past the payload or a period off the grid
        # in record 1 comes before a fault of record 2's own, and after one
        # of record 1's own
        records = list(self.RECORDS)
        records[1] = edited(records[1], before)
        records[2] = edited(records[2], after)
        assert_loaders_agree(records, [["S0", "S1", "S2"]])

    @settings(max_examples=300, deadline=None)
    @given(
        signal_records(),
        st.lists(st.tuples(st.integers(0, 4), st.sampled_from(SIGNAL_EDITS)), max_size=3),
    )
    def test_edits_agree_with_the_per_record_loop(self, records, edits):
        variants = [[r["id"] for r in records]]
        for i, op in edits:
            i %= len(records)
            records[i] = edited(records[i], op)
        assert_loaders_agree(records, variants)

    def test_valid_documents_skip_the_loop(self, example1_instance_path):
        from fraysched import benchgen

        docs = [
            json.loads(example1_instance_path.read_text()),
            benchgen.generate_instance(benchgen.PROFILES["set5"], 0),
            make_doc(signals=[], variants=[]),
        ]
        # a valid document keeps every rule on the rule's first check, and
        # never enters the bisection that finds a first fault
        for doc in docs:
            with mock.patch.object(core, "_first_failing") as bisect:
                loaded = load_instance(doc)
            assert not bisect.called
            assert loaded == reference_load_instance(doc)
            assert all(type(s) is Signal for s in loaded.signals)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.update(id=type("Id", (str,), {})("X")),
            lambda r: r.update(node=type("Node", (int,), {})(1)),
        ],
        ids=["str-subclass-id", "int-subclass-node"],
    )
    def test_subclassed_values_load(self, edit):
        # the node rule screens exact JSON types first; these subclasses
        # take its isinstance test, which accepts them
        record = dict(X_RECORD)
        edit(record)
        assert load_instance(make_doc(signals=[record])).signals == (Signal(**record),)


    def test_mapping_records_load_as_dicts(self):
        # the record-by-record read took any mapping as a record
        records = [dict(r) for r in self.RECORDS]
        records[1] = MappingProxyType(records[1])
        assert_loaders_agree(records, [["S0", "S1", "S2"]])
        loaded = load_instance(make_doc(signals=records, variants=[["S0", "S1", "S2"]]))
        assert loaded.signals[1] == Signal("S1", "ecu", 10000, 1, 0, 10000)

    def test_a_subscriptable_record_that_is_no_mapping_is_refused(self):
        # its keys cannot be listed, so neither its optional keys nor an
        # unknown one could be read
        class Record:
            def __getitem__(self, key):
                return X_RECORD[key]

        with pytest.raises(InstanceError) as loaded:
            load_instance(make_doc(signals=[Record()]))
        assert str(loaded.value) == "malformed signal record: not an object"


class TestRounding:
    def test_signal_a(self, example1):
        by_id = {s.id: s for s in example1.signals}
        win = round_time_constraints(by_id["A"], example1.config)
        assert (win.release_cycle, win.deadline_cycle, win.period_cycles) == (0, 0, 1)

    def test_signal_e_clipped_to_hyperperiod(self, example1):
        by_id = {s.id: s for s in example1.signals}
        win = round_time_constraints(by_id["E"], example1.config)
        assert (win.release_cycle, win.deadline_cycle, win.period_cycles) == (2, 3, 4)

    def test_deadline_inside_first_cycle_is_infeasible(self):
        sig = Signal("X", 1, 5000, 8, 0, 4999)
        with pytest.raises(InfeasibleSignalError):
            round_time_constraints(sig, EX1_CONFIG)

    def test_all_example1_windows(self, example1):
        expected = {
            "A": (0, 0, 1), "B": (0, 1, 2), "C": (0, 1, 2), "D": (1, 3, 4),
            "E": (2, 3, 4), "F": (1, 1, 2), "G": (0, 2, 4), "H": (0, 2, 4),
        }
        for sig in example1.signals:
            win = round_time_constraints(sig, example1.config)
            assert (win.release_cycle, win.deadline_cycle, win.period_cycles) == expected[sig.id]

    @given(
        rel=st.integers(min_value=0, max_value=7),
        span=st.integers(min_value=0, max_value=7),
        log_period=st.integers(min_value=0, max_value=3),
    )
    def test_rounding_idempotent_on_aligned_values(self, rel, span, log_period):
        cfg = FlexRayConfig(cycle_us=1000, hyperperiod_cycles=8, payload_bits=8)
        period = (1 << log_period) * 1000
        sig = Signal("X", 1, period, 4, rel * 1000, (span + 1) * 1000)
        try:
            win = round_time_constraints(sig, cfg)
        except InfeasibleSignalError:
            return
        # feed the rounded window back in as aligned release/deadline
        aligned = Signal(
            "X", 1, period, 4,
            win.release_cycle * 1000,
            (win.deadline_cycle - win.release_cycle + 1) * 1000,
        )
        again = round_time_constraints(aligned, cfg)
        assert again == win

    @given(
        rel=st.integers(min_value=0, max_value=63),
        dl=st.integers(min_value=1, max_value=64),
        log_period=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=200)
    def test_jobs_stay_inside_hyperperiod(self, rel, dl, log_period):
        cfg = FlexRayConfig(cycle_us=1000, hyperperiod_cycles=64, payload_bits=8)
        period = (1 << log_period) * 1000
        sig = Signal("X", 1, period, 4, rel * 1000, dl * 1000)
        try:
            win = round_time_constraints(sig, cfg)
        except InfeasibleSignalError:
            return
        jobs = 64 // win.period_cycles
        for first in range(win.release_cycle, win.deadline_cycle + 1):
            cycles = [first + k * win.period_cycles for k in range(jobs)]
            assert all(0 <= c < 64 for c in cycles)
            assert len(cycles) == jobs

    def test_config_invariants(self):
        with pytest.raises(InstanceError):
            FlexRayConfig(cycle_us=0, hyperperiod_cycles=4, payload_bits=16)
        with pytest.raises(InstanceError):
            FlexRayConfig(cycle_us=5000, hyperperiod_cycles=3, payload_bits=16)
        with pytest.raises(InstanceError):
            FlexRayConfig(cycle_us=5000, hyperperiod_cycles=4, payload_bits=0)

    def test_payload_is_at_most_254_bytes(self):
        assert FlexRayConfig(5000, 4, 2032).payload_bits == 2032
        with pytest.raises(InstanceError, match="between 1 and 2032"):
            FlexRayConfig(5000, 4, 2033)

