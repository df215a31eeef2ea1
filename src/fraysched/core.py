"""Instance data model: network configuration, signals, variants.

All values, and the membership map an `Instance` derives, which nothing
writes, are immutable after construction and can be shared freely between
concurrent scheduler runs.  Times are integer microseconds; cycle indices
are 0-based.

The rules of a signal record are one ordered table, and `first_fault`
runs such a table over records column by column (see there).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Optional, Union

NodeId = Union[int, str]

ALLOWED_HYPERPERIODS = (1, 2, 4, 8, 16, 32, 64)

# a FlexRay frame carries at most 254 payload bytes
MAX_PAYLOAD_BITS = 254 * 8


class InstanceError(ValueError):
    """Raised when an instance document violates the model invariants."""


class InfeasibleSignalError(ValueError):
    """Raised when a signal's time constraints leave no complete cycle."""


def _first_non_int(names, values):
    """(name, value) of the first value that is not an int, or None.
    bool is an int subclass, so JSON true/false are not ints here."""
    for name, value in zip(names, values):
        if type(value) is not int:
            return name, value
    return None


def is_node_id(value) -> bool:
    """An int or a non-empty string.  bool is an int subclass, and True
    would alias node 1."""
    if isinstance(value, str):
        return value != ""
    return isinstance(value, int) and not isinstance(value, bool)


def _first_failing(check, records, count: int) -> int:
    """The first record that breaks `check`, which the first `count`
    records break: a bisection for the shortest failing prefix."""
    good, bad = 0, count
    while bad - good > 1:
        mid = (good + bad) // 2
        if check(records, mid):
            good = mid
        else:
            bad = mid
    return good


def first_fault(rules, records, count: int) -> tuple[Optional[str], int]:
    """The error text of the first fault of the rule table `rules` over
    the first `count` records, and the number of records before it: None
    and `count` when they keep every rule.

    A rule is (check, message): check(records, k) tells whether the first
    k records keep it, given that they keep every rule above it, and
    message(records, i) is the text for record i.  A check that fails
    still fails on a longer prefix, so a failing rule is bisected for its
    first faulty record, and the rules below it run only over the records
    before that one.  The fault found is a per-record loop's: the lowest
    record that breaks a rule, then the first rule in table order.
    """
    fault = None
    for check, message in rules:
        if not check(records, count):
            count = _first_failing(check, records, count)
            fault = message(records, count)
    return fault, count


def _check(rules, fields, config=None) -> None:
    """Raise InstanceError for the first fault of the signal rules `rules`
    over signals, given as `fields`, one column per Signal field."""
    records = SimpleNamespace(fields=fields, config=config)
    fault, _ = first_fault(rules, records, len(fields.id))
    if fault:
        raise InstanceError(fault)


# A NamedTuple class cannot define __new__, so each checked record below is
# a subclass of its plain field tuple whose __new__ checks the values.
# `_make`, and so `_replace`, goes through that check too.


class _ConfigFields(NamedTuple):
    cycle_us: int
    hyperperiod_cycles: int
    payload_bits: int
    static_slots: int = 0
    slot_us: int = 0


class FlexRayConfig(_ConfigFields):
    """Bus parameters that are fixed before scheduling starts.

    `static_slots` is the slot count declared by the network designer; the
    scheduler may allocate more and the CLI warns when it does.  `slot_us`
    is informational only.
    """

    __slots__ = ()

    def __new__(cls, cycle_us, hyperperiod_cycles, payload_bits, static_slots=0, slot_us=0):
        values = (cycle_us, hyperperiod_cycles, payload_bits, static_slots, slot_us)
        bad = _first_non_int(cls._fields, values)
        if bad:
            name, value = bad
            raise InstanceError(f"config: {name} must be an integer, not {value!r}")
        if cycle_us <= 0:
            raise InstanceError("config: cycle_us must be positive")
        if hyperperiod_cycles not in ALLOWED_HYPERPERIODS:
            raise InstanceError(
                "config: hyperperiod_cycles must be one of %s"
                % (ALLOWED_HYPERPERIODS,)
            )
        if not 1 <= payload_bits <= MAX_PAYLOAD_BITS:
            raise InstanceError(
                f"config: payload_bits must be between 1 and {MAX_PAYLOAD_BITS} "
                f"(254 bytes), not {payload_bits}"
            )
        if static_slots < 0:
            raise InstanceError("config: static_slots must be >= 0")
        if slot_us < 0:
            raise InstanceError("config: slot_us must be >= 0")
        return tuple.__new__(cls, values)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SignalFields(NamedTuple):
    id: str
    node: NodeId
    period_us: int
    length_bits: int
    release_us: int
    deadline_us: int


# a signal record's keys: the Signal fields, the first four required
_SIGNAL_KEYS = frozenset(_SignalFields._fields)
_NUMBER_FIELDS = _SignalFields._fields[2:]
_MISSING = object()


def columns(rows, keys, defaults) -> list:
    """The `keys` columns of `rows`, a default where a key is absent; a row
    that is not a mapping has no keys.  `defaults` holds an iterable per
    key, read again when a row is not a dict (a `repeat` or a range)."""
    try:
        return [tuple(map(dict.get, rows, repeat(k), d)) for k, d in zip(keys, defaults)]
    except TypeError:
        rows = [dict(row) if isinstance(row, Mapping) else {} for row in rows]
        return columns(rows, keys, defaults)


def unknown_key(raw: dict, known, where: str) -> str:
    """The error for the first key of `raw` that is not in `known`, such
    as a misspelt one that would otherwise read as an absent optional key."""
    return "%s: unknown key %r" % (where, next(k for k in raw if k not in known))


def _record_columns(rows) -> _SignalFields:
    """One column per Signal field, from signal records: a missing required
    key reads as _MISSING, a missing release as 0, and only a missing
    deadline as the period."""
    defaults = [repeat(_MISSING)] * 4 + [repeat(0)]
    *required, releases = columns(rows, _SignalFields._fields[:5], defaults)
    (deadlines,) = columns(rows, ("deadline_us",), (required[2],))
    return _SignalFields(*required, releases, deadlines)


def _says(template: str):
    """The message builder that fills `template` from record i's fields
    and the bus `config`."""
    return lambda c, i: template.format(
        config=c.config, **{f: col[i] for f, col in c.fields._asdict().items()}
    )


def _malformed(c, i):
    try:
        # a record-by-record read looks the required keys up in this order
        itemgetter("period_us", "id", "node", "length_bits")(c.rows[i])
    except (KeyError, TypeError) as exc:
        return f"malformed signal record: {exc}"
    return "malformed signal record: not an object"


def _off_grid(c, i):
    sid, period, cycle = c.fields.id[i], c.fields.period_us[i], c.config.cycle_us
    if period % cycle or (period // cycle) & (period // cycle - 1):
        return f"signal {sid}: period {period} us is not cycle * 2^n (cycle = {cycle} us)"
    return f"signal {sid}: period {period} us exceeds the hyperperiod"


def _nodes(c, k):
    nodes = c.fields.node[:k]
    # exact JSON types are screened at C speed; any other type takes is_node_id
    return "" not in nodes and (
        set(map(type, nodes)) <= {int, str} or all(map(is_node_id, nodes))
    )


# The signal table, in the order a record-by-record read checks a record:
# its shape, its fields and its keys (the record rules), then the rules
# that need other records or the bus (the instance rules).  `Signal` runs
# the field rules over one record, the loader the record rules over a
# document, and `Instance` the instance rules over the signals it is given.
_FIELD_RULES = (
    # every id a str, and none of them empty
    (lambda c, k: all(map(isinstance, c.fields.id[:k], repeat(str)))
     and all(c.fields.id[:k]), _says("signal id must be a non-empty string")),
    (_nodes,
     _says("signal {id}: node must be an integer or a non-empty string, not {node!r}")),
    (lambda c, k: set(map(type, chain(*(col[:k] for col in c.fields[2:])))) <= {int},
     lambda c, i: "signal %s: %s must be an integer, not %r" % (
         c.fields.id[i], *_first_non_int(_NUMBER_FIELDS, [col[i] for col in c.fields[2:]])
     )),
    (lambda c, k: min(c.fields.period_us[:k], default=1) > 0,
     _says("signal {id}: period must be positive")),
    (lambda c, k: min(c.fields.length_bits[:k], default=1) > 0,
     _says("signal {id}: length must be >= 1 bit")),
    (lambda c, k: min(c.fields.release_us[:k], default=0) >= 0,
     _says("signal {id}: release must be >= 0")),
    (lambda c, k: min(c.fields.deadline_us[:k], default=1) > 0,
     _says("signal {id}: deadline must be positive")),
)
_INSTANCE_RULES = (
    (lambda c, k: len(set(c.fields.id[:k])) == k, _says("duplicate signal id {id!r}")),
    (lambda c, k: max(c.fields.length_bits[:k], default=0) <= c.config.payload_bits,
     _says("signal {id}: signal exceeds frame payload "
           "({length_bits} > {config.payload_bits} bits)")),
    # cycle * 2^n for every 2^n up to the hyperperiod (itself a power of two)
    (lambda c, k: set(c.fields.period_us[:k]) <= {
        c.config.cycle_us << n for n in range(c.config.hyperperiod_cycles.bit_length())
    }, _off_grid),
)
_RECORD_RULES = (
    # a record that is not a mapping reads as one without keys
    (lambda c, k: _MISSING not in chain(*(col[:k] for col in c.fields[:4])), _malformed),
    *_FIELD_RULES,
    (lambda c, k: set().union(*c.rows[:k]) <= _SIGNAL_KEYS,
     lambda c, i: unknown_key(c.rows[i], _SIGNAL_KEYS, f"signal {c.fields.id[i]}")),
)


class Signal(_SignalFields):
    """One periodic message: transmitting node, period, length and the
    release/deadline pair constraining its first instance.  Construction
    raises InstanceError for the first field that breaks the model's rules."""

    __slots__ = ()

    def __new__(cls, id, node, period_us, length_bits, release_us, deadline_us):
        values = (id, node, period_us, length_bits, release_us, deadline_us)
        _check(_FIELD_RULES, _SignalFields(*zip(values)))
        return tuple.__new__(cls, values)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CycleWindow(NamedTuple):
    """Admissible first-job cycles of a signal, at cycle granularity.

    Any first cycle in [release_cycle, deadline_cycle] yields exactly
    hyperperiod/period jobs, all inside the hyperperiod.
    """

    release_cycle: int
    deadline_cycle: int
    period_cycles: int


class _InstanceFields(NamedTuple):
    config: FlexRayConfig
    signals: tuple[Signal, ...]
    variants: tuple[frozenset[str], ...]  # the signal ids of each variant


class Instance(_InstanceFields):
    """A bus, its signals and the signal ids of each variant.

    Construction raises InstanceError for the first signal fault across
    records or against the bus (a duplicate id, a length past the payload,
    a period off the cycle grid or past the hyperperiod), then for the
    first variant that is not a collection of known signal ids, then for
    the first signal in no variant.  Each variant is kept as a frozenset.
    `variants_of[sid]`, the one inversion of membership, lists the variants
    using a signal in ascending order, signals in input order; it is not a
    field, so `==` ignores it, and `_make`, `_replace` and unpickling go
    through `__new__`, which rebuilds it.
    """

    def __new__(cls, config, signals, variants):
        signals = tuple(signals)
        fields = _SignalFields(*(tuple(zip(*signals)) or ((),) * 6))
        _check(_INSTANCE_RULES, fields, config)
        variants_of: dict[str, list[int]] = {sid: [] for sid in fields.id}
        members = []
        for j, group in enumerate(variants):
            if not isinstance(group, (list, tuple, set, frozenset)):
                raise InstanceError(
                    f"variant {j} must be a list of signal ids, not {group!r}"
                )
            try:
                # a signal listed twice is one member
                member_set = frozenset(group)
                for vs in map(variants_of.__getitem__, member_set):
                    vs.append(j)
            except (TypeError, KeyError):  # an unhashable entry or an unknown id
                sid = next(s for s in group if not isinstance(s, str) or s not in variants_of)
                raise InstanceError(
                    f"variant {j} references unknown signal {sid!r}" if isinstance(sid, str)
                    else f"variant {j}: signal ids must be strings, not {sid!r}"
                ) from None
            members.append(member_set)
        if not all(variants_of.values()):
            sid = next(sid for sid, vs in variants_of.items() if not vs)
            raise InstanceError(f"signal {sid} not assigned to any variant")
        self = tuple.__new__(cls, (config, signals, tuple(members)))
        self.variants_of = variants_of
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def round_time_constraints(signal: Signal, config: FlexRayConfig) -> CycleWindow:
    """Round a signal's release/deadline to whole communication cycles.

    The release moves to the start of the earliest complete cycle, the
    deadline to the end of the latest complete cycle that still ends by
    release + deadline.  The window is further clipped so that every
    admissible first cycle keeps all periodic jobs inside the hyperperiod:
    deadline_cycle <= period_cycles - 1.
    """
    cycle = config.cycle_us
    hyper = config.hyperperiod_cycles
    period_cycles = signal.period_us // cycle
    release_cycle = -(-signal.release_us // cycle)
    raw_deadline = (signal.release_us + signal.deadline_us) // cycle - 1
    # no release is negative, so the window also ends within a period of it
    deadline_cycle = min(raw_deadline, period_cycles - 1, hyper - 1)
    if deadline_cycle < release_cycle:
        raise InfeasibleSignalError(
            f"signal {signal.id}: no complete cycle between release "
            f"{signal.release_us} us and deadline {signal.deadline_us} us",
        )
    return CycleWindow(release_cycle, deadline_cycle, period_cycles)


# the keys of a config section: the fields they fill
_CONFIG_FIELDS = FlexRayConfig._fields
_CONFIG_REQUIRED = tuple(f for f in _CONFIG_FIELDS if f not in FlexRayConfig._field_defaults)


def load_instance(doc: dict) -> Instance:
    """Build a checked Instance from a parsed instance document.

    The config section and each signal record take only the fields of
    `FlexRayConfig` and `Signal`; a record's `release_us` defaults to 0 and
    its `deadline_us` to its period.  The records go through the record
    rules of the signal table, and the built signals through `Instance`,
    which runs the instance rules and checks the variants.  A record fault
    comes after any instance fault of the records before it, so the error
    names the fault that a record-by-record read would meet first.
    Unknown top-level keys (e.g. generator metadata) are ignored.
    """
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    try:
        raw_cfg = doc["config"]
        raw_signals = doc["signals"]
        raw_variants = doc["variants"]
    except KeyError as exc:
        raise InstanceError(f"instance document missing key {exc}") from None

    if not isinstance(raw_cfg, dict):
        raise InstanceError("config must be a JSON object")
    if not isinstance(raw_signals, list):
        raise InstanceError("signals must be a list of signal records")
    if not isinstance(raw_variants, list):
        raise InstanceError("variants must be a list of signal-id lists")

    if not raw_cfg.keys() <= set(_CONFIG_FIELDS):
        raise InstanceError(unknown_key(raw_cfg, _CONFIG_FIELDS, "config"))
    for name in _CONFIG_REQUIRED:
        if name not in raw_cfg:
            raise InstanceError(f"malformed config section: {name!r}")
    config = FlexRayConfig(**raw_cfg)

    fields = _record_columns(raw_signals)
    records = SimpleNamespace(rows=raw_signals, fields=fields, config=config)
    fault, kept = first_fault(_RECORD_RULES, records, len(raw_signals))
    if fault:
        # a record's instance rules come after its record rules, so only the
        # records before the fault can break one of them first
        raise InstanceError(first_fault(_INSTANCE_RULES, records, kept)[0] or fault)
    signals = tuple(map(tuple.__new__, repeat(Signal), zip(*fields)))
    return Instance(config, signals, raw_variants)


def read_json(path: Union[str, Path]):
    """The JSON value in the UTF-8 file `path`.  Text that does not decode,
    nests too deep or holds too long an int raises InstanceError naming the
    file; OSError and UnicodeDecodeError pass through."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"{path}: not valid JSON ({exc})") from None


def read_instance(path: Union[str, Path]) -> Instance:
    return load_instance(read_json(path))
