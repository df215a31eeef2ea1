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

The records are unzipped into columns once.  Duplicates and coverage
are screened by counting distinct ids; their per-id loops run only when a
count falls short.  Time-window, periodicity and payload-bound hold per
record as column forms, whose `all()` is their screen; only the records
that a column flags are formatted, in record order.

Node exclusivity needs per-variant node sets only in slots that carry two
or more nodes, which one pass over the distinct (slot, node) pairs finds.
In those slots each variant maps to the set of nodes it sees there, and a
variant that sees more than one is reported.  Frame overlap is pairwise,
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

from collections import Counter
from itertools import compress, repeat
from operator import add, le, lshift, lt, mul
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


def _record_rules(records, flags, cfg, out) -> None:
    """Report the time-window, periodicity and payload-bound faults that
    the rule columns flag, in record order; `flags` holds per record
    whether it keeps each of the three rules."""
    cycle_us = cfg.cycle_us
    for (sig, (slot, first, offset)), held in zip(records, flags):
        if all(held):
            continue
        sid = sig.id
        period = sig.period_us // cycle_us
        release_cycle = -(-sig.release_us // cycle_us)
        # no release is negative, so the window also ends within a period of it
        deadline_cycle = min((sig.release_us + sig.deadline_us) // cycle_us - 1,
                             period - 1, cfg.hyperperiod_cycles - 1)
        faults = (
            ("time-window", f"signal {sid} first job at cycle {first} outside "
             f"[{release_cycle}, {deadline_cycle}]", first),
            ("periodicity", f"signal {sid} jobs from cycle {first} every "
             f"{period} cycles do not all fit the hyperperiod", first),
            ("payload-bound", f"signal {sid} at offset {offset} with {sig.length_bits} "
             f"bits exceeds the {cfg.payload_bits}-bit payload", None),
        )
        for kept, (rule, message, cycle) in zip(held, faults):
            if not kept:
                out(Violation(rule, message, signal=sid, slot=slot, cycle=cycle))


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
        for sid, n in Counter(ids).items():
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

    # The placement rules, each the AND of columns over the records, in
    # microseconds with c the cycle.  Time-window: first >= ceil(release /
    # c) iff first * c >= release, and first <= min((release + deadline) //
    # c, period // c, H) - 1 iff (first + 1) * c is at most release +
    # deadline, the period and H * c; releases are >= 0, so first <=
    # release_cycle + period - 1 then holds too.  Periodicity: the last job,
    # at first + (H // period - 1) * period, is in the hyperperiod iff first
    # is below H minus that offset.  Payload-bound: the bits lie in [0, W).
    period_of = {p: p // cycle_us for p in set(periods_us)}
    caps = {p: min(p, hyper * cycle_us) for p in period_of}
    room = {p: hyper - (hyper // n - 1) * n for p, n in period_of.items()}
    starts = tuple(map(mul, firsts, repeat(cycle_us)))
    ends = tuple(map(add, starts, repeat(cycle_us)))
    in_window = lambda: (
        map(le, releases, starts),
        map(le, ends, map(add, releases, deadlines)),
        map(le, ends, map(caps.__getitem__, periods_us)),
    )
    periodic = lambda: (
        map(le, repeat(0), firsts), map(lt, firsts, map(room.__getitem__, periods_us))
    )
    in_frame = lambda: (
        map(le, repeat(0), offsets), map(le, map(add, offsets, lengths), repeat(width))
    )
    overlap_slots = set()
    # a first cycle in its window is in [0, min(period, H)), so its last
    # job, at most H - period cycles later, is in the hyperperiod: the
    # screen need not read the periodicity columns
    if not all(all(column) for rule in (in_window, in_frame) for column in rule()):
        rules = (in_window, periodic, in_frame)
        flags = list(zip(*(map(all, zip(*rule())) for rule in rules)))
        _record_rules(records, flags, cfg, out)
        # a record outside its frame cannot be packed for the overlap screen
        overlap_slots.update(
            slot for slot, first, flag in zip(slots, firsts, flags) if not flag[2] or first < 0
        )

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
        held, shared = occ[slot], None
        for j in own:
            # variants that held one int share one result, not a copy each
            old = held[j]
            if old is not shared:
                shared, new = old, old | bits
            held[j] = new
        placed[slot] += count

    # a record's bits are disjoint (one range per job, each inside its own
    # cycle), so each (slot, variant) popcount is at most the bits placed
    # there, and equals it only when no two of its records share a bit:
    # the slot's popcounts sum to its placed total exactly when none do.
    # The pass above gives a run of variants that held one int one result,
    # so an int is counted once per run, not once per variant
    for slot, held in occ.items():
        total, last, count = 0, None, 0
        for bits in held:
            if bits is not last:
                last, count = bits, bits.bit_count()
            total += count
        if total != placed[slot]:
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
    # a slot with two or more nodes, each variant maps to the nodes it sees
    # there, and a variant that sees two or more is reported
    carried = {slot: set() for slot in dict.fromkeys(slots)}
    for slot, node in set(zip(slots, nodes)):
        carried[slot].add(node)
    seen_in = {slot: {} for slot, held in carried.items() if len(held) > 1}
    if seen_in:
        for slot, node, own in zip(slots, nodes, owns):
            seen = seen_in.get(slot)
            if seen is not None:
                for j in own:
                    seen.setdefault(j, set()).add(node)
    for slot, seen in seen_in.items():
        for j in sorted(j for j, held in seen.items() if len(held) > 1):
            out(
                Violation(
                    "node-exclusivity",
                    f"slot {slot} carries nodes "
                    f"{sorted(map(str, seen[j]))} in variant {j}",
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
