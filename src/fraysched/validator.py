"""Independent feasibility checker for multischedules.

Deliberately shares no code with the placement engine and imports only
`core`.  It reads (signal, placement) records and each slot's stated
nodes, from a parsed document or an engine result.  Variant co-occurrence
and node conflicts are recomputed from the raw variant matrix, occupancy
from the records with this module's own bit packing, and the admissible
cycle windows with plain arithmetic.  Violations carry machine-readable
coordinates so tests can assert on rule identity.

Rule ids:

  node-exclusivity  a variant sees two different nodes in one slot
  frame-overlap     two co-used signals occupy intersecting bit ranges
  payload-bound     a placement sticks out of the frame payload
  periodicity       duplicate placement, or jobs leave the hyperperiod
  time-window       first job outside [release_cycle, deadline_cycle]
  coverage          a variant's signal has no placement at all
  slot-nodes        a slot's stated nodes differ from its signals' nodes

The first two rules are evaluated from the multischedule itself (two nodes
sharing a slot or two signals overlapping is fine exactly when no variant
combines them), which makes them equivalent to per-variant native checks.

The records are unzipped into columns once, and the rules that a
feasible schedule never breaks are screened over whole columns before any
record is looked at alone:

  duplicates and    the count of distinct signal ids against the record
  coverage          count and the instance's signal count; the per-id
                    loops run only when one of them falls short.
  time-window,      compared in microseconds, column against column: first
  payload-bound     * cycle >= release, (first + 1) * cycle <= release +
                    deadline and <= period, 0 <= offset and offset + length
                    <= W.  With no period (in cycles) above H, that also
                    keeps every job in the hyperperiod, so periodicity
                    holds too.  Only when the screen fails does the
                    per-record rule loop run, which reports the faults in
                    record order.

Node exclusivity needs per-variant node sets only in slots that carry two
or more nodes, which one pass over the distinct (slot, node) pairs finds.
In those slots the records' variant indices are united per node: a
variant in two nodes' unions sees both nodes.  Frame overlap is pairwise,
and a feasible schedule has no pair to report, so it is first screened
per slot and checked exactly only on the slots the screen flags:

  frame-overlap     one pass over the records keeps, per (slot, variant),
                    one int of H * W bits where cycle c owns bits
                    [c * W, (c + 1) * W), and per slot the number of bits
                    placed.  A record's bits are its range repeated at each
                    of its jobs, jobs * length bits in all, made from the
                    columns; the pass only ORs them into the int of each of
                    its variants and adds its bit count times its variant
                    count to the slot's total.  The
                    slot is flagged when the popcounts of its ints sum to
                    less than that total (two records of some variant share
                    a bit), or when a record lies outside its frame
                    (negative offset or first cycle, or past W), so that no
                    int grows past H * W bits.  Two co-used signals that
                    overlap in a frame share a variant, so their slot is
                    flagged; a false flag only costs the exact path.
                    Flagged slots get the per-frame sweep, over their
                    records in record order, which reports frames and pairs
                    in the order a sweep over all frames would.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add, le, lshift, mul
from typing import NamedTuple, Optional

from .core import Instance


class Violation(NamedTuple):
    rule: str
    message: str
    signal: Optional[str] = None
    slot: Optional[int] = None
    variant: Optional[int] = None
    cycle: Optional[int] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


def _overlapping_pairs(entries: list[tuple]) -> list[tuple[int, int]]:
    """Index pairs (i, k), i < k, of entries (id, offset, length, ...)
    whose bit ranges intersect, in no particular order.

    Sweep in offset order: an entry overlaps exactly the entries that
    start at or after its own start and before its end, so the work is a
    sort plus the number of overlapping pairs, not every pair of the frame.
    """
    ranked = sorted((e[1], i, e[1] + e[2]) for i, e in enumerate(entries))
    pairs = []
    n = len(ranked)
    for p in range(n - 1):
        _, i, end = ranked[p]
        q = p + 1
        while q < n and ranked[q][0] < end:
            k = ranked[q][1]
            pairs.append((i, k) if i < k else (k, i))
            q += 1
    return pairs


def _unzip(rows, width: int) -> tuple:
    """The columns of a sequence of equal-length tuples; `width` empty
    columns for no rows."""
    return tuple(zip(*rows)) or ((),) * width


def _record_rules(records, cfg, out) -> set[int]:
    """Report the time-window, periodicity and payload-bound faults record
    by record; the slots with a record outside its frame (negative first
    cycle or offset, or past W), which the overlap screen cannot pack."""
    cycle_us = cfg.cycle_us
    hyper = cfg.hyperperiod_cycles
    width = cfg.payload_bits
    unpacked = set()
    for sig, pos in records:
        sid = sig.id
        slot, first, offset = pos
        length = sig.length_bits
        period = sig.period_us // cycle_us

        release_cycle = -(-sig.release_us // cycle_us)
        deadline_cycle = min(
            (sig.release_us + sig.deadline_us) // cycle_us - 1,
            release_cycle + period - 1,
            period - 1,
            hyper - 1,
        )
        if not (release_cycle <= first <= deadline_cycle):
            out(
                Violation(
                    "time-window",
                    f"signal {sid} first job at cycle {first} outside "
                    f"[{release_cycle}, {deadline_cycle}]",
                    signal=sid,
                    slot=slot,
                    cycle=first,
                )
            )
        if first < 0 or first + (hyper // period - 1) * period >= hyper:
            out(
                Violation(
                    "periodicity",
                    f"signal {sid} jobs from cycle {first} every "
                    f"{period} cycles do not all fit the hyperperiod",
                    signal=sid,
                    slot=slot,
                    cycle=first,
                )
            )
        in_frame = offset >= 0 and offset + length <= width
        if not in_frame:
            out(
                Violation(
                    "payload-bound",
                    f"signal {sid} at offset {offset} with "
                    f"{length} bits exceeds the {width}-bit payload",
                    signal=sid,
                    slot=slot,
                )
            )
        if not in_frame or first < 0:
            unpacked.add(slot)
    return unpacked


def validate_multischedule(records, slot_nodes, instance: Instance) -> list[Violation]:
    """All rule violations of the schedule; an empty list means feasible."""
    cfg = instance.config
    cycle_us = cfg.cycle_us
    hyper = cfg.hyperperiod_cycles
    width = cfg.payload_bits

    # variants of each signal, ascending
    var_lists: dict[str, list[int]] = {s.id: [] for s in instance.signals}
    for j, group in enumerate(instance.variants):
        for sid in group:
            var_lists[sid].append(j)

    violations: list[Violation] = []
    out = violations.append

    sigs, positions = _unzip(records, 2)
    ids, nodes, periods_us, lengths, releases, deadlines = _unzip(sigs, 6)
    slots, firsts, offsets = _unzip(positions, 3)

    placed_ids = set(ids)
    if len(placed_ids) < len(ids):
        counts: dict[str, int] = {}
        for sid in ids:
            counts[sid] = counts.get(sid, 0) + 1
        for sid, n in counts.items():
            if n > 1:
                out(
                    Violation(
                        "periodicity",
                        f"signal {sid} has {n} placements, expected exactly one",
                        signal=sid,
                    )
                )

    # signals required by some variant but absent from the schedule
    if len(placed_ids) < len(var_lists):
        for s in instance.signals:
            if s.id not in placed_ids and var_lists[s.id]:
                out(
                    Violation(
                        "coverage",
                        f"signal {s.id} required by variant "
                        f"{var_lists[s.id][0]} has no placement",
                        signal=s.id,
                        variant=var_lists[s.id][0],
                    )
                )

    # The window rules over the columns, in microseconds: with c the cycle,
    # first >= ceil(release / c) iff first * c >= release, first <=
    # (release + deadline) // c - 1 iff (first + 1) * c <= release +
    # deadline, and first <= period // c - 1 iff (first + 1) * c <= period.
    # Releases are >= 0, so then 0 <= first <= release_cycle + period - 1;
    # and when no period (in cycles) exceeds H, first < period keeps first
    # below H and the last job, at first + (H // period - 1) * period, in
    # the hyperperiod.  The rule loop runs only when some record breaks a
    # rule, and reports them in record order.
    period_of = {p: p // cycle_us for p in set(periods_us)}
    starts = tuple(map(mul, firsts, repeat(cycle_us)))
    ends = tuple(map(add, starts, repeat(cycle_us)))
    screened = (
        all(0 < p <= hyper for p in period_of.values())
        and all(map(le, releases, starts))
        and all(map(le, ends, map(add, releases, deadlines)))
        and all(map(le, ends, periods_us))
        and min(offsets, default=0) >= 0
        and max(map(add, offsets, lengths), default=0) <= width
    )
    overlap_slots = set() if screened else _record_rules(records, cfg, out)

    # the overlap screen's columns: per packed record its bits, its
    # variants and the bits it places (its bit count per variant)
    owns = tuple(map(var_lists.__getitem__, ids))
    packed = (slots, firsts, offsets, lengths, periods_us, owns)
    if overlap_slots:
        keep = [s not in overlap_slots for s in slots]
        packed = [tuple(compress(column, keep)) for column in packed]
    p_slots, p_firsts, p_offsets, p_lengths, p_periods, p_owns = packed
    jobs = tuple(zip(p_firsts, map(period_of.__getitem__, p_periods)))
    # (first cycle, period) -> bit c * W of each job's cycle c, and job count
    job_bits, job_count = {}, {}
    for key in set(jobs):
        cycles = range(key[0], hyper, key[1])
        job_bits[key] = sum(1 << (c * width) for c in cycles)
        job_count[key] = len(cycles)
    runs = {n: (1 << n) - 1 for n in set(p_lengths)}
    bit_col = map(
        lshift,
        map(mul, map(job_bits.__getitem__, jobs), map(runs.__getitem__, p_lengths)),
        p_offsets,
    )
    placed_col = map(
        mul, map(job_count.__getitem__, jobs), map(mul, p_lengths, map(len, p_owns))
    )

    # slot -> per variant, the H * W occupied bits; and the bits placed in
    # the slot, counted once per variant of each record
    no_bits = [0] * len(instance.variants)
    occ = {slot: no_bits.copy() for slot in set(p_slots)}
    placed = dict.fromkeys(occ, 0)
    for slot, bits, own, count in zip(p_slots, bit_col, p_owns, placed_col):
        held = occ[slot]
        for j in own:
            held[j] |= bits
        placed[slot] += count

    # a record's bits are disjoint (one range per job, each inside its own
    # cycle), so each (slot, variant) popcount is at most the bits placed
    # there, and equals it only when no two of its records share a bit:
    # the slot's popcounts sum to its placed total exactly when none do
    for slot, held in occ.items():
        if sum(map(int.bit_count, held)) != placed[slot]:
            overlap_slots.add(slot)

    # exact overlap checks on the flagged slots only, over their records in
    # record order, so frames and pairs come out as an all-slots sweep
    # orders them
    grid: dict[tuple[int, int], list[tuple[str, int, int]]] = {}
    if overlap_slots:
        for sig, pos in records:
            slot = pos.slot
            if slot in overlap_slots:
                entry = (sig.id, pos.offset_bits, sig.length_bits)
                period = sig.period_us // cycle_us
                for c in range(max(pos.first_cycle, 0), hyper, period):
                    grid.setdefault((slot, c), []).append(entry)

    # overlapping bit ranges are only allowed between signals that never
    # ride in the same variant; reported in entry order per frame
    for (slot, c), entries in grid.items():
        for i, k in sorted(_overlapping_pairs(entries)):
            sid_a, sid_b = entries[i][0], entries[k][0]
            common = set(var_lists[sid_a]).intersection(var_lists[sid_b])
            if not common:
                continue
            j = min(common)
            out(
                Violation(
                    "frame-overlap",
                    f"signals {sid_a} and {sid_b} overlap in slot "
                    f"{slot} cycle {c} but share variant {j}",
                    signal=sid_a,
                    slot=slot,
                    variant=j,
                    cycle=c,
                )
            )

    # one node per slot, judged per variant: each slot's nodes from one
    # pass over the distinct (slot, node) pairs, slots in record order; in
    # a slot with two or more nodes, a variant held by two nodes' unions of
    # variant sets is a variant that sees both, and its carriers are the
    # nodes whose union holds it
    carried = {slot: set() for slot in dict.fromkeys(slots)}
    for slot, node in set(zip(slots, nodes)):
        carried[slot].add(node)
    slot_unions = {
        slot: {node: set() for node in held} for slot, held in carried.items()
        if len(held) > 1
    }
    if slot_unions:
        for slot, node, own in zip(slots, nodes, owns):
            unions = slot_unions.get(slot)
            if unions is not None:
                unions[node].update(own)
    for slot, unions in slot_unions.items():
        seen: set[int] = set()
        shared: set[int] = set()
        for js in unions.values():
            shared |= seen & js
            seen |= js
        for j in sorted(shared):
            carriers = [node for node, js in unions.items() if j in js]
            out(
                Violation(
                    "node-exclusivity",
                    f"slot {slot} carries nodes "
                    f"{sorted(map(str, carriers))} in variant {j}",
                    slot=slot,
                    variant=j,
                )
            )

    # the nodes a slot states (a document's `nodes`) are its signals' nodes
    for i, stated in enumerate(slot_nodes):
        held = carried.get(i, set())
        if stated != held:
            out(
                Violation(
                    "slot-nodes",
                    f"slot {i} states nodes {sorted(map(str, stated))} "
                    f"but carries {sorted(map(str, held))}",
                    slot=i,
                )
            )
    return violations
