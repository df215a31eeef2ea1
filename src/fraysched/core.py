"""Instance data model: network configuration, signals, variants.

All values are immutable after construction and can be shared freely
between concurrent scheduler runs.  Times are integer microseconds; cycle
indices are 0-based.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Union

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


class Signal(_SignalFields):
    """One periodic message: transmitting node, period, length and the
    release/deadline pair constraining its first instance.  Construction
    raises InstanceError for the first field that breaks the model's rules."""

    __slots__ = ()

    def __new__(cls, id, node, period_us, length_bits, release_us, deadline_us):
        if not isinstance(id, str) or not id:
            raise InstanceError("signal id must be a non-empty string")
        if not is_node_id(node):
            raise InstanceError(
                f"signal {id}: node must be an integer or a non-empty "
                f"string, not {node!r}"
            )
        numbers = (period_us, length_bits, release_us, deadline_us)
        if not (type(period_us) is type(length_bits) is type(release_us)
                is type(deadline_us) is int):
            name, value = _first_non_int(cls._fields[2:], numbers)
            raise InstanceError(f"signal {id}: {name} must be an integer, not {value!r}")
        if period_us <= 0:
            raise InstanceError(f"signal {id}: period must be positive")
        if length_bits < 1:
            raise InstanceError(f"signal {id}: length must be >= 1 bit")
        if release_us < 0:
            raise InstanceError(f"signal {id}: release must be >= 0")
        if deadline_us <= 0:
            raise InstanceError(f"signal {id}: deadline must be positive")
        return tuple.__new__(cls, (id, node) + numbers)

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

    @property
    def span(self) -> int:
        return self.deadline_cycle - self.release_cycle


class Instance(NamedTuple):
    config: FlexRayConfig
    signals: tuple[Signal, ...]
    variants: tuple[frozenset[str], ...]  # the signal ids of each variant


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


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
    deadline_cycle = min(
        raw_deadline,
        release_cycle + period_cycles - 1,
        period_cycles - 1,
        hyper - 1,
    )
    if deadline_cycle < release_cycle:
        raise InfeasibleSignalError(
            f"signal {signal.id}: no complete cycle between release "
            f"{signal.release_us} us and deadline {signal.deadline_us} us",
        )
    return CycleWindow(release_cycle, deadline_cycle, period_cycles)


def _bad_variant_member(j: int, group: list, seen: set) -> InstanceError:
    """The error for the first entry of variant j that is not a known
    signal id; looked up only once the set test has failed."""
    sid = next(s for s in group if not isinstance(s, str) or s not in seen)
    if isinstance(sid, str):
        return InstanceError(f"variant {j} references unknown signal {sid!r}")
    return InstanceError(f"variant {j}: signal ids must be strings, not {sid!r}")


# the keys of a config section and of a signal record: the fields they fill
_CONFIG_FIELDS = FlexRayConfig._fields
_CONFIG_REQUIRED = tuple(f for f in _CONFIG_FIELDS if f not in FlexRayConfig._field_defaults)
_SIGNAL_FIELDS = frozenset(Signal._fields)
_REQUIRED_SIGNAL_KEYS = itemgetter("id", "node", "period_us", "length_bits")


def _screened_signals(raw_signals: list, config: FlexRayConfig, periods: set):
    """(signals, ids) when every record passes every rule, or None.

    The rules are checked column by column, and the records are then built
    without a check of their own; on None the per-record loop runs and
    names the first fault.  Only exact JSON types pass: a subclass of dict,
    str or int leaves its record to the loop.
    """
    if not raw_signals:
        return (), set()
    if set(map(type, raw_signals)) != {dict}:
        return None
    if not set().union(*raw_signals) <= _SIGNAL_FIELDS:
        return None
    try:
        ids, nodes, period_col, lengths = zip(*map(_REQUIRED_SIGNAL_KEYS, raw_signals))
    except KeyError:
        return None
    releases = tuple(map(dict.get, raw_signals, repeat("release_us"), repeat(0)))
    # only a missing deadline means "the period", as in the loop
    deadlines = tuple(map(dict.get, raw_signals, repeat("deadline_us"), period_col))
    if set(map(type, ids)) != {str}:
        return None
    if set(map(type, chain(period_col, lengths, releases, deadlines))) != {int}:
        return None
    seen = set(ids)
    if len(seen) < len(ids) or "" in seen:
        return None
    if not set(map(type, nodes)) <= {int, str} or "" in nodes:
        return None
    if not set(period_col) <= periods:
        return None
    if min(lengths) < 1 or max(lengths) > config.payload_bits:
        return None
    if min(releases) < 0 or min(deadlines) <= 0:
        return None
    columns = zip(ids, nodes, period_col, lengths, releases, deadlines)
    return tuple(map(tuple.__new__, repeat(Signal), columns)), seen


def _record_signals(raw_signals: list, config: FlexRayConfig, periods: set):
    """(signals, ids) built one record at a time with `Signal(...)`; the
    first record that breaks a rule raises InstanceError."""
    cycle = config.cycle_us
    signals = []
    seen = set()
    for raw in raw_signals:
        try:
            period = raw["period_us"]
            sid = raw["id"]
            node = raw["node"]
            length = raw["length_bits"]
            release = raw.get("release_us", 0)
            # only a missing deadline means "the period"; an explicit 0 is
            # rejected like any other non-positive value
            deadline = raw["deadline_us"] if "deadline_us" in raw else period
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"malformed signal record: {exc}") from None
        sig = Signal(sid, node, period, length, release, deadline)
        # the four required keys are present, so a longer record has a key
        # that no Signal field takes, such as a misspelt optional one
        if len(raw) != 4 + ("release_us" in raw) + ("deadline_us" in raw):
            key = next(k for k in raw if k not in _SIGNAL_FIELDS)
            raise InstanceError(f"signal {sid}: unknown key {key!r}")
        if sid in seen:
            raise InstanceError(f"duplicate signal id {sid!r}")
        seen.add(sid)
        if length > config.payload_bits:
            raise InstanceError(
                f"signal {sid}: signal exceeds frame payload "
                f"({length} > {config.payload_bits} bits)"
            )
        if period not in periods:
            if period % cycle != 0 or not _is_power_of_two(period // cycle):
                raise InstanceError(
                    f"signal {sid}: period {period} us is not "
                    f"cycle * 2^n (cycle = {cycle} us)"
                )
            raise InstanceError(
                f"signal {sid}: period {period} us exceeds the hyperperiod"
            )
        signals.append(sig)
    return signals, seen


def load_instance(doc: dict) -> Instance:
    """Build a validated Instance from a parsed instance document.

    The config section and each signal record take only the fields of
    `FlexRayConfig` and `Signal`, whose constructors check their values; a
    record's `release_us` defaults to 0 and its `deadline_us` to its period.
    The signal records are screened column by column first, and only a
    failed screen runs the per-record loop that names the first fault.
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

    for key in raw_cfg:
        if key not in _CONFIG_FIELDS:
            raise InstanceError(f"config: unknown key {key!r}")
    for name in _CONFIG_REQUIRED:
        if name not in raw_cfg:
            raise InstanceError(f"malformed config section: {name!r}")
    config = FlexRayConfig(**raw_cfg)

    # cycle * 2^k for every 2^k up to the hyperperiod (itself a power of two)
    periods = {config.cycle_us << k for k in range(config.hyperperiod_cycles.bit_length())}
    screened = _screened_signals(raw_signals, config, periods)
    signals, seen = screened or _record_signals(raw_signals, config, periods)

    members = []
    for j, group in enumerate(raw_variants):
        if not isinstance(group, list):
            raise InstanceError(
                f"variant {j} must be a list of signal ids, not {group!r}"
            )
        try:
            member_set = frozenset(group)
            known = member_set <= seen
        except TypeError:  # an unhashable entry
            known = False
        if not known:
            raise _bad_variant_member(j, group, seen)
        members.append(member_set)
    variants = tuple(members)

    # every variant holds known ids only, so all are covered when the
    # union is as large as the id set
    covered = set().union(*members)
    if len(covered) < len(seen):
        sid = next(s.id for s in signals if s.id not in covered)
        raise InstanceError(f"signal {sid} not assigned to any variant")

    return Instance(config, tuple(signals), variants)


def config_to_dict(config: FlexRayConfig) -> dict:
    """The config's fields in field order, as a new dict."""
    return config._asdict()


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
