"""Independent feasibility checker for multischedules.

Deliberately shares no code with the placement engine: variant
co-occurrence and node conflicts are recomputed here from the raw variant
matrix, occupancy is rebuilt per frame from the placement records, and the
admissible cycle windows are re-derived with plain arithmetic.  Violations
carry machine-readable coordinates so tests can assert on rule identity.

Rule ids:

  node-exclusivity  a variant sees two different nodes in one slot
  frame-overlap     two co-used signals occupy intersecting bit ranges
  payload-bound     a placement sticks out of the frame payload
  periodicity       duplicate placement, or jobs leave the hyperperiod
  time-window       first job outside [release_cycle, deadline_cycle]
  coverage          a variant's signal has no placement at all

The first two rules are evaluated from the multischedule itself (two nodes
sharing a slot or two signals overlapping is fine exactly when no variant
combines them), which makes them equivalent to per-variant native checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Instance, NodeId
from .multischedule import Multischedule


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    signal: Optional[str] = None
    slot: Optional[int] = None
    variant: Optional[int] = None
    cycle: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"rule": self.rule, "message": self.message}
        for key in ("signal", "slot", "variant", "cycle"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


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


def validate_multischedule(ms: Multischedule, instance: Instance) -> list[Violation]:
    """All rule violations of the schedule; an empty list means feasible."""
    cfg = instance.config
    cycle_us = cfg.cycle_us
    hyper = cfg.hyperperiod_cycles
    width = cfg.payload_bits

    by_id = {s.id: s for s in instance.signals}
    var_sets: dict[str, set[int]] = {s.id: set() for s in instance.signals}
    for j, group in enumerate(instance.variants.members):
        for sid in group:
            var_sets.setdefault(sid, set()).add(j)

    violations: list[Violation] = []
    out = violations.append

    counts: dict[str, int] = {}
    for sid, _pos in ms.placement_records:
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
    for s in instance.signals:
        if s.id not in counts and var_sets[s.id]:
            out(
                Violation(
                    "coverage",
                    f"signal {s.id} required by variant "
                    f"{min(var_sets[s.id])} has no placement",
                    signal=s.id,
                    variant=min(var_sets[s.id]),
                )
            )

    # per-placement checks and frame grid reconstruction
    grid: dict[tuple[int, int], list[tuple[str, int, int, NodeId]]] = {}
    slot_members: dict[int, list[str]] = {}
    for sid, pos in ms.placement_records:
        sig = by_id[sid]
        period = sig.period_us // cycle_us

        release_cycle = -(-sig.release_us // cycle_us)
        deadline_cycle = min(
            (sig.release_us + sig.deadline_us) // cycle_us - 1,
            release_cycle + period - 1,
            period - 1,
            hyper - 1,
        )
        if not (release_cycle <= pos.first_cycle <= deadline_cycle):
            out(
                Violation(
                    "time-window",
                    f"signal {sid} first job at cycle {pos.first_cycle} outside "
                    f"[{release_cycle}, {deadline_cycle}]",
                    signal=sid,
                    slot=pos.slot,
                    cycle=pos.first_cycle,
                )
            )
        if pos.first_cycle < 0 or pos.first_cycle + (hyper // period - 1) * period >= hyper:
            out(
                Violation(
                    "periodicity",
                    f"signal {sid} jobs from cycle {pos.first_cycle} every "
                    f"{period} cycles do not all fit the hyperperiod",
                    signal=sid,
                    slot=pos.slot,
                    cycle=pos.first_cycle,
                )
            )
        if pos.offset_bits < 0 or pos.offset_bits + sig.length_bits > width:
            out(
                Violation(
                    "payload-bound",
                    f"signal {sid} at offset {pos.offset_bits} with "
                    f"{sig.length_bits} bits exceeds the {width}-bit payload",
                    signal=sid,
                    slot=pos.slot,
                )
            )
        slot_members.setdefault(pos.slot, []).append(sid)
        for c in range(max(pos.first_cycle, 0), hyper, period):
            grid.setdefault((pos.slot, c), []).append(
                (sid, pos.offset_bits, sig.length_bits, sig.node)
            )

    # overlapping bit ranges are only allowed between signals that never
    # ride in the same variant; reported in entry order per frame
    for (slot, c), entries in grid.items():
        clashes = sorted(
            (i, k)
            for i, k in _overlapping_pairs(entries)
            if not var_sets[entries[i][0]].isdisjoint(var_sets[entries[k][0]])
        )
        for i, k in clashes:
            sid_a, sid_b = entries[i][0], entries[k][0]
            shared = min(var_sets[sid_a] & var_sets[sid_b])
            out(
                Violation(
                    "frame-overlap",
                    f"signals {sid_a} and {sid_b} overlap in slot "
                    f"{slot} cycle {c} but share variant {shared}",
                    signal=sid_a,
                    slot=slot,
                    variant=shared,
                    cycle=c,
                )
            )

    # one node per slot, judged per variant
    for slot, members in slot_members.items():
        per_variant: dict[int, set] = {}
        for sid in members:
            node = by_id[sid].node
            for j in var_sets[sid]:
                per_variant.setdefault(j, set()).add(node)
        for j, nodes in sorted(per_variant.items()):
            if len(nodes) > 1:
                out(
                    Violation(
                        "node-exclusivity",
                        f"slot {slot} carries nodes "
                        f"{sorted(map(str, nodes))} in variant {j}",
                        slot=slot,
                        variant=j,
                    )
                )
    return violations
