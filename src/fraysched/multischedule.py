"""Shared schedule structure and the first-fit placement primitives.

The multischedule stores every signal once.  A signal used by several
vehicle variants keeps one (slot, cycle, offset) in all of them; two stored
signals may occupy overlapping bit ranges of the same multiframe when no
variant uses both of them.  Per-variant (native) schedules fall out by
dropping foreign signals; the renderer builds them only on demand.

Occupancy is kept per slot and per variant as free bits:
`Multischedule.slots[s][v]` is one int of H * W bits (H cycles of the
hyperperiod, W payload bits) where cycle c owns bits [c * W, (c + 1) * W);
a new slot starts with every bit free in every variant,
`Multischedule.heads[-1]`.  Residents conflict with a signal exactly when
they share a variant with it, so the bits a signal may use in a slot are
the AND of slots[s][v] over its own variants.

A static slot belongs to one node in each variant, so a slot holding a
node that shares a variant with node p stays shut to p; the commit that
brings a node into slot s sets bit s of `closed[p]` for every such p.
`find_position_for_signal` walks the slots still open to the signal's node
in allocation order.  Its first job lies in frames 0..deadline_cycle, so
the AND starts from `Multischedule.heads[deadline_cycle]`, the mask of
just those frames, and costs no more than they do (an AND of
non-negative ints is as long as the shorter one).  One
candidate mask per slot visit holds the offsets of the window's frames at
which the first job fits; its lowest bit is the earliest cycle and the
lowest offset inside it.  Periods are powers of two and windows keep
first_cycle < period_cycles, so a resident's jobs fill one residue class
of cycles modulo its period, and `Multischedule.periods[s]`, the longest
period among slot s's residents, is a period of every variant's free bits.
When it divides the signal's period, each later job's frame reads as the
first job's and the candidate is taken as it is; FFP places signals by
non-decreasing period and FFC does so node by node, so there this is the
common case.  Otherwise the candidate is checked against the later jobs'
frames, with one full-width AND per slot; on a clash the candidate's frame
and every frame below it leave the mask.
`place_signal_to_schedule` commits the position it finds, or opens a slot;
the commit clears the jobs' bits with XOR, which is exact because they are
free in every one of the signal's variants, and raises the slot's period
to the signal's when that is longer.
Every bit pattern comes from one table, `Multischedule.patterns`, with
one entry per (period, length): a signal's jobs, to be shifted to its
position, the in-frame start offsets of its length, and the shifts that
turn free bits into starts of free runs of that length, so the search and
the commit of one signal each read it with one subscript.
The multischedule holds the conflict model it was built for, `mems`:
the search, the commit and the natives all read variant membership from
it, so placement and the per-variant schedules cannot disagree on it.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, islice, repeat
from operator import and_
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional

from .core import (
    CycleWindow,
    FlexRayConfig,
    Instance,
    NodeId,
    Signal,
    columns,
    first_fault,
    is_node_id,
    unknown_key,
)
from .exclusion import ConflictModel


class ScheduleError(ValueError):
    """Raised for malformed schedule documents (unknown signals, bad shape)."""


class Placement(NamedTuple):
    """Position of a signal's first job; the remaining jobs repeat it every
    period_cycles at the same slot and offset.  The search builds one only
    for the position it returns, the document reader one per placement."""

    slot: int
    first_cycle: int
    offset_bits: int


class _Patterns(dict):
    """(period, length) -> (jobs, fits, shifts): a signal's jobs,
    pattern(period, length); the offsets at which it fits a frame,
    pattern(1, W - length + 1); and the shifts that turn free bits into
    starts of `length`-bit free runs.  Each entry is made on its first
    lookup.  It keeps the bus sizes, not its multischedule, so that the
    two form no reference cycle."""

    __slots__ = ("width", "hyper")

    def __init__(self, config: FlexRayConfig):
        super().__init__()
        self.width = config.payload_bits
        self.hyper = config.hyperperiod_cycles

    def pattern(self, period_cycles: int, length: int) -> int:
        """A `length`-bit run at offset 0 of cycles 0, period, 2 * period, ...

        Shifted left by cycle * W + offset, pattern(period, L) is the jobs
        of an L-bit signal whose first job is at (cycle, offset); windows
        keep first_cycle below the period, so they stay in the hyperperiod.
        pattern(1, W - L + 1) marks the offsets at which L bits fit a frame.
        """
        starts = sum(1 << (c * self.width) for c in range(0, self.hyper, period_cycles))
        return starts * ((1 << length) - 1)

    def __missing__(self, key):
        period, length = key
        # run doubling: while bit b stands for a run of `run` free bits,
        # ANDing with a copy shifted by step <= run makes it stand for
        # run + step bits, so about log2(length) steps suffice
        shifts, run = [], 1
        while run * 2 <= length:
            shifts.append(run)
            run *= 2
        if run < length:
            shifts.append(length - run)
        entry = self[key] = (
            self.pattern(period, length),
            self.pattern(1, self.width - length + 1),
            tuple(shifts),
        )
        return entry


class Multischedule:
    """Slots and the placement records of one multischedule.

    `mems` is the conflict model the schedule is built for: it sizes each
    slot's per-variant free bits, says which variants a signal's jobs
    occupy and which nodes meet in a variant, and groups the natives.
    `windows` maps each signal id to its admissible cycle window.
    `slots[s]` holds slot s's free bits, one int per variant, and
    `periods[s]` the longest `period_cycles` among its residents, 1 while
    it has none; the free bits of every variant repeat every periods[s]
    cycles.  `slot_nodes[s]` is the set of nodes with a signal in slot s, and
    `closed[node]` has bit s set when slot s holds a node that shares a
    variant with `node`.  `heads[d]` is every bit of frames 0..d, where a
    window ending at cycle d has its first job; `heads[-1]` is every bit of
    a slot, H * W of them, and a new slot's free bits in each variant.
    `patterns` is the table that the search and the commit of a signal
    read, one (jobs, fits, shifts) entry per (period, length).
    """

    def __init__(
        self, config: FlexRayConfig, windows: dict[str, CycleWindow], mems: ConflictModel
    ):
        self.config = config
        self.windows = windows
        self.mems = mems
        self.slots: list[list[int]] = []
        self.periods: list[int] = []
        self.slot_nodes: list[set] = []
        # every committed (signal, placement) pair in commit order
        self.placement_records: list[tuple[Signal, Placement]] = []
        self.closed: dict[NodeId, int] = {}
        width = config.payload_bits
        self.heads = [
            (1 << ((d + 1) * width)) - 1 for d in range(config.hyperperiod_cycles)
        ]
        self.patterns = _Patterns(config)


def find_position_for_signal(ms: Multischedule, signal: Signal) -> Optional[Placement]:
    """First position at which every periodic job of `signal` fits, or None.

    Candidates are enumerated slot-major (allocation order), then by cycle
    inside the signal's window; per frame only the minimal feasible offset
    of the first job is a candidate.  A slot visit builds one mask of the
    first job's feasible offsets over the window's frames and reads
    candidates from it lowest bit first; a candidate is taken when the same
    range is also free in every later job's frame, which holds without a
    check when the slot's period divides the signal's, and otherwise its
    frame is dropped from the mask.  Slots closed to the signal's node are
    never visited.
    """
    window = ms.windows[signal.id]
    width = ms.config.payload_bits
    length = signal.length_bits
    variants = ms.mems.variants_of[signal.id]
    release = window.release_cycle
    period = window.period_cycles
    pattern, fits, shifts = ms.patterns[period, length]
    # the offsets at which the signal fits a frame, in the window's frames
    # and above; the AND below drops the frames past the deadline
    fits <<= release * width
    head = ms.heads[window.deadline_cycle]
    slots, periods = ms.slots, ms.periods
    open_slots = ((1 << len(slots)) - 1) & ~ms.closed.get(signal.node, 0)

    while open_slots:
        si = (open_slots & -open_slots).bit_length() - 1
        open_slots &= open_slots - 1
        free = slots[si].__getitem__
        hits = reduce(and_, map(free, variants), head)
        for step in shifts:
            hits &= hits >> step
        # bit c * W + o is set when the first job fits at (c, o)
        hits &= fits
        whole = None
        while hits:
            cycle, offset = divmod((hits & -hits).bit_length() - 1, width)
            # every resident's period divides the signal's, so each later
            # job's frame has the same free bits as the first job's
            if periods[si] <= period:
                return Placement(si, cycle, offset)
            # the first job is free by construction, so this tests the later ones
            if whole is None:
                whole = reduce(and_, map(free, variants), ms.heads[-1])
            jobs = pattern << (cycle * width + offset)
            if whole & jobs == jobs:
                return Placement(si, cycle, offset)
            # only a frame's lowest offset is a candidate: drop frames 0..cycle
            hits &= -(1 << ((cycle + 1) * width))
    return None


def place_signal_to_schedule(ms: Multischedule, signal: Signal) -> Placement:
    """Place one signal and all of its periodic jobs, first fit.

    Commits the first position that holds every job; when the allocated
    slots have none a fresh slot is opened, which always admits the signal
    at (release_cycle, offset 0).
    """
    window, mems = ms.windows[signal.id], ms.mems
    pos = find_position_for_signal(ms, signal)
    if pos is None:
        pos = Placement(len(ms.slots), window.release_cycle, 0)
        ms.slots.append([ms.heads[-1]] * mems.variant_count)
        ms.periods.append(1)
        ms.slot_nodes.append(set())
    shift = pos.first_cycle * ms.config.payload_bits + pos.offset_bits
    bits = ms.patterns[window.period_cycles, signal.length_bits][0] << shift
    # the search found `bits` free in every one of the signal's variants,
    # so XOR clears exactly them; variants that held one int share one
    # result, so a fresh slot's free bits are not copied per variant
    free, shared = ms.slots[pos.slot], None
    for v in mems.variants_of[signal.id]:
        old = free[v]
        if old is not shared:
            shared, new = old, old ^ bits
        free[v] = new
    ms.periods[pos.slot] = max(ms.periods[pos.slot], window.period_cycles)
    node, nodes = signal.node, ms.slot_nodes[pos.slot]
    if node not in nodes:
        nodes.add(node)
        # every node that meets the newcomer in some variant is shut out
        own, bit, closed = mems.node_mask[node], 1 << pos.slot, ms.closed
        for other, other_mask in mems.node_mask.items():
            if other != node and other_mask & own:
                closed[other] = closed.get(other, 0) | bit
    ms.placement_records.append((signal, pos))
    return pos


# Schedule documents are JSON text with sorted keys, a 2-space indent and
# ASCII escapes, plus a trailing newline: the bytes that
# json.dumps(doc, indent=2, sort_keys=True) + "\n" gives.  The text is
# rendered here directly, because that call runs the pure-Python encoder
# (the C one serves only indent=None) and would re-encode a shared
# placement in every native that holds it.  Each placement is rendered
# once, at its fixed depth and with the separator that precedes it, and
# each document is one join over fixed slot pieces and those fragments.

_PLACEMENT = (
    ",\n"
    "        {\n"
    '          "first_cycle": %d,\n'
    '          "offset_bits": %d,\n'
    '          "signal": %s\n'
    "        }"
)
_SLOT_OPEN = '    {\n      "index": %d,\n      "nodes": '
_SLOT_EMPTY = '[],\n      "placements": []\n    }'
_PLACEMENTS_OPEN = ',\n      "placements": [\n'
_SLOT_CLOSE = "\n      ]\n    }"


def _node_key(node) -> tuple:
    # nodes are listed by str(); on a tie such as 1 and "1" the int comes
    # first, so that the order never depends on set iteration
    return str(node), isinstance(node, str)


def _node_list(nodes) -> str:
    """JSON array of a slot's nodes, closed at the slot's depth."""
    if not nodes:
        return "[]"
    return "[\n" + ",\n".join(
        "        " + (encode_basestring_ascii(n) if isinstance(n, str) else "%d" % n)
        for n in sorted(nodes, key=_node_key)
    ) + "\n      ]"


def _document(head: str, opens: list, empties: list, rows: list, nodes: list,
              tail: str) -> str:
    """Document text: `head`, then per slot s its placement fragments
    rows[s] under the node list text nodes[s] (or the slot's empty text
    when it has none), then `tail`.  `opens[s]` and `empties[s]` start
    with the separator that precedes slot s."""
    pieces = [head]
    for s, row in enumerate(rows):
        if row:
            # the first fragment follows the opening bracket, not a comma
            pieces += (opens[s], nodes[s], _PLACEMENTS_OPEN, row[0][2:])
            pieces += row[1:]
            pieces.append(_SLOT_CLOSE)
        else:
            pieces.append(empties[s])
    pieces.append(tail)
    return "".join(pieces)


def render_documents(ms: Multischedule) -> Iterator[str]:
    """Text of the multischedule document, then of each variant's native
    schedule in variant order, grouped by the multischedule's conflict
    model.

    A native is the multischedule with foreign signals dropped; slots
    hosting none of the variant's signals stay in it, empty.  Each
    placement is rendered once; the natives file those fragments in their
    slots only once the first native is asked for.  A native's nodes in a
    slot are tracked only where the slot holds two or more nodes: in a
    one-node slot they are that node when the native has rows there.
    """
    count = len(ms.slot_nodes)
    rows: list[list[str]] = [[] for _ in range(count)]
    fragments = []
    for sig, (s, first, offset) in ms.placement_records:
        fragment = _PLACEMENT % (first, offset, encode_basestring_ascii(sig.id))
        rows[s].append(fragment)
        fragments.append(fragment)
    config = ",\n".join(
        '    "%s": %d' % item for item in sorted(ms.config._asdict().items())
    )
    head = '{\n  "config": {\n' + config + '\n  },\n  "slots": '
    opens = [(",\n" if s else "[\n") + _SLOT_OPEN % s for s in range(count)]
    empties = [text + _SLOT_EMPTY for text in opens]
    close = "\n  ]" if count else "[]"
    whole = list(map(_node_list, ms.slot_nodes))
    yield _document(head, opens, empties, rows, whole, close + "\n}\n")
    # the natives: the generator resumes here only once the first is asked for
    variants_of = ms.mems.variants_of
    # picked[j][s] is the fragments of variant j's native in slot s
    picked = [[[] for _ in rows] for _ in range(ms.mems.variant_count)]
    # slot -> each variant's nodes there, for the slots shared by nodes
    shared = {
        s: [set() for _ in picked] for s, nodes in enumerate(ms.slot_nodes) if len(nodes) > 1
    }
    for (sig, (s, _, _)), fragment in zip(ms.placement_records, fragments):
        variants = variants_of[sig.id]
        for j in variants:
            picked[j][s].append(fragment)
        if s in shared:
            sets = shared[s]
            for j in variants:
                sets[j].add(sig.node)
    for j, native in enumerate(picked):
        nodes = whole.copy()
        for s, sets in shared.items():
            nodes[s] = _node_list(sets[j])
        tail = close + ',\n  "variant": %d\n}\n' % j
        yield _document(head, opens, empties, native, nodes, tail)


def extract_native_schedule(ms: Multischedule, variant: int) -> dict:
    """Variant `variant`'s schedule document, parsed from its rendered
    text; IndexError when the multischedule's model has no such variant."""
    count = ms.mems.variant_count
    if not 0 <= variant < count:
        raise IndexError(f"variant {variant} out of range 0..{count - 1}")
    return json.loads(next(islice(render_documents(ms), variant + 1, None)))


def schedule_to_dict(ms: Multischedule) -> dict:
    """The multischedule document, parsed from its rendered text."""
    return json.loads(next(render_documents(ms)))


# the keys a schedule document may use, at each level
_DOCUMENT_KEYS = frozenset(("config", "slots"))
_SLOT_ORDER = ("index", "nodes", "placements")
_SLOT_KEYS = frozenset(_SLOT_ORDER)
_PLACEMENT_ORDER = ("signal", "first_cycle", "offset_bits")
_PLACEMENT_KEYS = frozenset(_PLACEMENT_ORDER)


# The slot table and the placement table, each in the order a reader of
# one slot and then its placements checks them.  The columns of a slot
# are its index, nodes and placements, those of a placement its signal,
# first_cycle and offset_bits.
_SLOT_RULES = (
    (lambda c, k: all(map(isinstance, c.rows[:k], repeat(dict)))
     and all(map(isinstance, c.fields[2][:k], repeat(list))),
     lambda c, i: f"slot {i}: a slot must be an object with a 'placements' list"),
    (lambda c, k: set().union(*c.rows[:k]) <= _SLOT_KEYS,
     lambda c, i: unknown_key(c.rows[i], _SLOT_KEYS, f"slot {i}")),
    # bool is an int subclass and 1.0 == 1: neither is an index
    (lambda c, k: set(map(type, c.fields[0][:k])) <= {int}
     and c.fields[0][:k] == tuple(range(k)),
     lambda c, i: f"slot {i}: index is {c.fields[0][i]!r}, expected {i}"),
    (lambda c, k: all(map(isinstance, c.fields[1][:k], repeat(list)))
     and all(map(is_node_id, chain(*c.fields[1][:k]))),
     lambda c, i: f"slot {i}: nodes must be a list of node ids, not {c.fields[1][i]!r}"),
)
_PLACEMENT_RULES = (
    (lambda c, k: all(map(isinstance, c.rows[:k], repeat(dict))),
     lambda c, i: f"slot {c.slot[i]}: a placement must be an object"),
    (lambda c, k: set().union(*c.rows[:k]) <= _PLACEMENT_KEYS,
     lambda c, i: unknown_key(c.rows[i], _PLACEMENT_KEYS, f"slot {c.slot[i]}: placement")),
    (lambda c, k: all(map(isinstance, c.fields[0][:k], repeat(str)))
     and c.by_id.keys() >= set(c.fields[0][:k]),
     lambda c, i: f"schedule references unknown signal {c.fields[0][i]!r}"),
    # with no unknown key and a signal, a placement of fewer keys lacks a number
    (lambda c, k: min(map(len, c.rows[:k]), default=3) == 3,
     lambda c, i: "malformed placement for %s: %r" % (
         c.fields[0][i], next(k for k in _PLACEMENT_ORDER[1:] if k not in c.rows[i])
     )),
    # bool is an int subclass: JSON true/false are not cycles or offsets
    (lambda c, k: set(map(type, chain(c.fields[1][:k], c.fields[2][:k]))) <= {int},
     lambda c, i: "malformed placement for %s: first_cycle and offset_bits must be "
     "integers, not %r and %r" % tuple(column[i] for column in c.fields)),
)


def schedule_from_dict(doc: dict, instance: Instance) -> tuple[list, list[set]]:
    """The placement records and slot nodes a schedule document states.

    Records are (signal, `Placement`) pairs in document order, as the
    engine keeps them; slot s's nodes are its stated `nodes`, or its
    placements' nodes when it states none.  Infeasible placements and a
    signal listed twice pass (the validator needs to see them), but a
    document referencing unknown signals, lacking structure or using keys
    the format does not have is rejected, as is a stated `config` or slot
    `index` that differs from the instance or the slot's position.  The
    slots go through the slot table, and the placements of the slots
    before its first fault through the placement table, so the error names
    the first fault of a read of one slot and then its placements.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("slots"), list):
        raise ScheduleError("schedule document must be an object with a 'slots' list")
    if not doc.keys() <= _DOCUMENT_KEYS:
        raise ScheduleError(unknown_key(doc, _DOCUMENT_KEYS, "schedule document"))
    config = instance.config._asdict()
    stated = doc.get("config", config)
    # bool is an int subclass and 16.0 == 16: neither is the instance's value
    if stated != config or any(type(v) is not int for v in stated.values()):
        raise ScheduleError(
            f"schedule config {stated!r} differs from the instance config {config!r}"
        )
    by_id = {s.id: s for s in instance.signals}
    raw_slots = doc["slots"]
    # an absent index reads as the slot's position
    defaults = (range(len(raw_slots)), repeat([]), repeat([]))
    slots = SimpleNamespace(rows=raw_slots, fields=columns(raw_slots, _SLOT_ORDER, defaults))
    slot_fault, kept = first_fault(_SLOT_RULES, slots, len(raw_slots))
    # a slot's placements are read after its own rules, before the next slot's
    lists = slots.fields[2][:kept]
    rows = list(chain.from_iterable(lists))
    placements = SimpleNamespace(
        rows=rows,
        fields=columns(rows, _PLACEMENT_ORDER, (repeat(None),) * 3),
        slot=tuple(chain.from_iterable(map(repeat, range(kept), map(len, lists)))),
        by_id=by_id,
    )
    fault = first_fault(_PLACEMENT_RULES, placements, len(rows))[0] or slot_fault
    if fault:
        raise ScheduleError(fault)
    sids, firsts, offsets = placements.fields
    positions = map(tuple.__new__, repeat(Placement), zip(placements.slot, firsts, offsets))
    records = list(zip(map(by_id.__getitem__, sids), positions))
    slot_nodes = list(map(set, slots.fields[1]))
    # a slot that states no nodes has its placements' nodes
    unstated = {i for i, raw in enumerate(raw_slots) if "nodes" not in raw}
    if unstated:
        for sig, pos in records:
            if pos.slot in unstated:
                slot_nodes[pos.slot].add(sig.node)
    return records, slot_nodes
