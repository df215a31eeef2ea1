"""Independent reference implementations used as test oracles.

Nothing here reuses the placement engine's data structures or search code:
conflicts are recomputed from the variant matrix, occupancy is kept as
plain per-frame entry lists, and offsets are found by scanning every
position.  The document readers read one record at a time and state
every input rule themselves.  The document and frame-overlap references and the per-frame
entry view (`frame_view`) read only a schedule's placement records.  Slow
on purpose.  The instance serializer, the random instance generators and
the pairwise queries over a conflict model live here too, because only
the tests use them.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from hypothesis import strategies as st

from fraysched.core import FlexRayConfig, Instance, InstanceError, Signal, load_instance
from fraysched.multischedule import Placement, ScheduleError


def instance_to_dict(instance: Instance) -> dict:
    """Serialize an Instance back to the document format.

    Variant member lists are emitted in instance signal order, which makes
    the serialization canonical.
    """
    order = {s.id: i for i, s in enumerate(instance.signals)}
    return {
        "config": instance.config._asdict(),
        "signals": [
            {
                "id": s.id,
                "node": s.node,
                "period_us": s.period_us,
                "length_bits": s.length_bits,
                "release_us": s.release_us,
                "deadline_us": s.deadline_us,
            }
            for s in instance.signals
        ],
        "variants": [
            sorted(group, key=order.__getitem__) for group in instance.variants
        ],
    }


def signals_conflict(mems, a: str, b: str) -> bool:
    """True iff the conflict model `mems` says the two signals must never
    overlap (co-used somewhere); a signal never overlaps itself."""
    shared = set(mems.variants_of[a]) & set(mems.variants_of[b])
    return a == b or bool(shared)


def nodes_conflict(mems, p, q) -> bool:
    """True iff the conflict model `mems` says the two nodes must not
    share a slot."""
    shared = mems.node_mask[p] & mems.node_mask[q]
    return p != q and bool(shared)


def recompute_windows(instance: Instance) -> dict:
    """(release_cycle, deadline_cycle, period_cycles) per signal id."""
    F = instance.config.cycle_us
    H = instance.config.hyperperiod_cycles
    out = {}
    for s in instance.signals:
        period = s.period_us // F
        rel = -(-s.release_us // F)
        dl = min((s.release_us + s.deadline_us) // F - 1, rel + period - 1,
                 period - 1, H - 1)
        out[s.id] = (rel, dl, period)
    return out


def conflict_tables(instance: Instance):
    """Pairwise signal/node conflict predicates from the raw variant sets."""
    varsets = {
        s.id: frozenset(
            j for j, g in enumerate(instance.variants) if s.id in g
        )
        for s in instance.signals
    }
    node_of = {s.id: s.node for s in instance.signals}
    nodes_in_variant = {}
    for s in instance.signals:
        for j in varsets[s.id]:
            nodes_in_variant.setdefault(j, set()).add(s.node)

    # two distinct nodes conflict iff some variant uses both
    node_pairs = {
        (p, q) for ns in nodes_in_variant.values() for p in ns for q in ns if p != q
    }

    def sig_conflict(a, b):
        return bool(varsets[a] & varsets[b])

    def node_conflict(p, q):
        return (p, q) in node_pairs

    return varsets, node_of, sig_conflict, node_conflict


def naive_first_fit_offset(entries, sig_id, length, width, sig_conflict):
    """Scan every offset; entries is a list of (id, offset, length)."""
    for off in range(0, width - length + 1):
        ok = True
        for other, o2, l2 in entries:
            if sig_conflict(sig_id, other) and off < o2 + l2 and o2 < off + length:
                ok = False
                break
        if ok:
            return off
    return None


class Entry(NamedTuple):
    signal: str
    offset_bits: int
    length_bits: int


def frame_view(ms) -> list:
    """Entries of every (slot, cycle) frame, `frame_view(ms)[slot][cycle]`,
    in record order: one per job of each placement record."""
    cfg = ms.config
    hyper = cfg.hyperperiod_cycles
    frames = [[[] for _ in range(hyper)] for _ in ms.slots]
    for sig, pos in ms.placement_records:
        period = sig.period_us // cfg.cycle_us
        for cycle in range(max(pos.first_cycle, 0), hyper, period):
            frames[pos.slot][cycle].append(Entry(sig.id, pos.offset_bits, sig.length_bits))
    return frames


def frame_mask(entries, variants_of, sig_id) -> int:
    """Bits of one frame that block a signal: per variant, the OR of its
    residents' ranges, then the OR over the signal's own variants.
    `entries` are (id, offset, length)."""
    occ: dict[int, int] = {}
    for other, offset, length in entries:
        for v in variants_of[other]:
            occ[v] = occ.get(v, 0) | ((1 << length) - 1) << offset
    mask = 0
    for v in variants_of[sig_id]:
        mask |= occ.get(v, 0)
    return mask


def reference_schedule(instance: Instance, order):
    """First-fit placement with naive data structures.

    Returns {signal id: (slot, first_cycle, offset)} plus the slot count.
    `order` is the already-sorted signal list.
    """
    F = instance.config.cycle_us
    H = instance.config.hyperperiod_cycles
    W = instance.config.payload_bits
    windows = recompute_windows(instance)
    _, node_of, sig_conflict, node_conflict = conflict_tables(instance)

    frames: dict[tuple[int, int], list] = {}
    slot_nodes: list[set] = []
    placements = {}

    def position_ok(sig, slot, c0, off):
        rel, dl, period = windows[sig.id]
        for c in range(c0, H, period):
            for other, o2, l2 in frames.get((slot, c), ()):
                if sig_conflict(sig.id, other) and off < o2 + l2 and o2 < off + sig.length_bits:
                    return False
        return True

    for sig in order:
        rel, dl, period = windows[sig.id]
        chosen = None
        for slot in range(len(slot_nodes)):
            if any(node_conflict(sig.node, n) for n in slot_nodes[slot]):
                continue
            for c0 in range(rel, dl + 1):
                off = naive_first_fit_offset(
                    frames.get((slot, c0), ()), sig.id, sig.length_bits, W, sig_conflict
                )
                if off is not None and position_ok(sig, slot, c0, off):
                    chosen = (slot, c0, off)
                    break
            if chosen:
                break
        if chosen is None:
            slot_nodes.append(set())
            chosen = (len(slot_nodes) - 1, rel, 0)
        slot, c0, off = chosen
        slot_nodes[slot].add(sig.node)
        for c in range(c0, H, period):
            frames.setdefault((slot, c), []).append((sig.id, off, sig.length_bits))
        placements[sig.id] = chosen
    return placements, len(slot_nodes)


def brute_force_min_slots(instance: Instance, upper_bound=None) -> int:
    """Exact minimum slot count by branch and bound.

    Offsets are searched on the gcd grid of all signal lengths, which is
    exact: any feasible packing can be left-justified, and left-justified
    offsets are sums of resident lengths.
    """
    F = instance.config.cycle_us
    H = instance.config.hyperperiod_cycles
    W = instance.config.payload_bits
    windows = recompute_windows(instance)
    varsets, node_of, sig_conflict, node_conflict = conflict_tables(instance)

    sigs = sorted(
        instance.signals,
        key=lambda s: s.length_bits * (H // (s.period_us // F)),
        reverse=True,
    )
    n = len(sigs)
    if n == 0:
        return 0

    grid = math.gcd(W, *[s.length_bits for s in sigs])

    # static lower bound: nodes of one variant never share slots, and one
    # variant's bits must fit the allocated slot area
    lower = 0
    for j, group in enumerate(instance.variants):
        nodes = {node_of[sid] for sid in group}
        bits = sum(
            s.length_bits * (H // (s.period_us // F))
            for s in instance.signals
            if s.id in group
        )
        lower = max(lower, len(nodes), -(-bits // (H * W)))

    best = upper_bound if upper_bound is not None else n
    frames: dict[tuple[int, int], list] = {}
    slot_nodes: list[set] = []

    def fits(sig, slot, c0, off):
        for node in slot_nodes[slot]:
            if node_conflict(sig.node, node):
                return False
        period = windows[sig.id][2]
        for c in range(c0, H, period):
            for other, o2, l2 in frames.get((slot, c), ()):
                if sig_conflict(sig.id, other) and off < o2 + l2 and o2 < off + sig.length_bits:
                    return False
        return True

    def dfs(i, used):
        nonlocal best
        if used >= best or best <= lower:
            return
        if i == n:
            best = used
            return
        sig = sigs[i]
        rel, dl, period = windows[sig.id]
        top = used + 1 if used + 1 < best else used  # opening a slot must pay off
        for slot in range(top):
            opens = slot == used
            if opens:
                slot_nodes.append(set())
            for c0 in range(rel, dl + 1):
                for off in range(0, W - sig.length_bits + 1, grid):
                    if not fits(sig, slot, c0, off):
                        continue
                    added_node = sig.node not in slot_nodes[slot]
                    slot_nodes[slot].add(sig.node)
                    cells = []
                    for c in range(c0, H, period):
                        frames.setdefault((slot, c), []).append(
                            (sig.id, off, sig.length_bits)
                        )
                        cells.append((slot, c))
                    dfs(i + 1, used + (1 if opens else 0))
                    for cell in cells:
                        frames[cell].pop()
                    if added_node:
                        slot_nodes[slot].discard(sig.node)
                    if best <= lower:
                        if opens:
                            slot_nodes.pop()
                        return
            if opens:
                slot_nodes.pop()

    dfs(0, 0)
    return best


def make_random_instance(rng: random.Random, max_signals=12, max_nodes=3,
                         max_variants=4, hyperperiod=None, payload_bits=8,
                         lengths=(2, 4, 8), periods=(1, 2, 4, 8)) -> Instance:
    """Small random instance, by default on an 8-bit payload with
    gcd-friendly lengths; `periods` are in cycles, those above the
    hyperperiod are left out."""
    H = hyperperiod or rng.choice([2, 4, 8])
    F = 1000
    n = rng.randint(1, max_signals)
    n_nodes = rng.randint(1, max_nodes)
    n_variants = rng.randint(1, max_variants)
    signals = []
    for i in range(n):
        period_cycles = rng.choice([p for p in periods if p <= H])
        rel = rng.randint(0, period_cycles - 1)
        dlc = rng.randint(rel, period_cycles - 1)
        signals.append(
            {
                "id": f"t{i:02d}",
                "node": rng.randint(1, n_nodes),
                "period_us": period_cycles * F,
                "length_bits": rng.choice(lengths),
                "release_us": rel * F,
                "deadline_us": (dlc - rel + 1) * F,
            }
        )
    members = [[] for _ in range(n_variants)]
    for sig in signals:
        mine = [j for j in range(n_variants) if rng.random() < 0.5]
        if not mine:
            mine = [rng.randrange(n_variants)]
        for j in mine:
            members[j].append(sig["id"])
    doc = {
        "config": {
            "cycle_us": F,
            "hyperperiod_cycles": H,
            "payload_bits": payload_bits,
            "static_slots": 0,
            "slot_us": 0,
        },
        "signals": signals,
        "variants": members,
    }
    return load_instance(doc)


def with_mixed_nodes(instance):
    """The instance with every even node id turned into a string."""
    rename = lambda n: f"n{n}" if n % 2 == 0 else n
    signals = tuple(s._replace(node=rename(s.node)) for s in instance.signals)
    return instance._replace(signals=signals)


@st.composite
def node_split_instances(draw):
    """A random instance of up to 6 nodes, int and str ids mixed, where each
    node is confined to the lower variants, the upper ones or neither, so
    that some node pairs share no variant and may share a slot."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    inst = make_random_instance(rng, max_signals=16, max_nodes=6, max_variants=5)
    if draw(st.booleans()):
        inst = with_mixed_nodes(inst)
    count = len(inst.variants)
    cut = draw(st.integers(0, count))
    sides = {"low": range(cut), "high": range(cut, count), "all": range(count)}
    allowed = {}
    for node in sorted({s.node for s in inst.signals}, key=str):
        allowed[node] = sides[draw(st.sampled_from(sorted(sides)))] or range(count)
    members = [set() for _ in range(count)]
    for sig in inst.signals:
        mine = [j for j in allowed[sig.node] if sig.id in inst.variants[j]]
        for j in mine or [rng.choice(allowed[sig.node])]:
            members[j].add(sig.id)
    variants = tuple(frozenset(g) for g in members)
    return inst._replace(variants=variants)


def _node_order(node):
    return str(node), isinstance(node, str)


def slots_doc(ms, keep=None) -> list:
    """Slot list of a schedule document as plain dicts, in one pass over
    the placement records; `keep` restricts it to a set of signal ids, and
    each slot's nodes are those of the signals it keeps.  The reference
    that the rendered schedule text is compared against."""
    placements = [[] for _ in ms.slots]
    nodes = [set() for _ in ms.slots]
    for sig, pos in ms.placement_records:
        if keep is None or sig.id in keep:
            placements[pos.slot].append(
                {
                    "signal": sig.id,
                    "first_cycle": pos.first_cycle,
                    "offset_bits": pos.offset_bits,
                }
            )
            nodes[pos.slot].add(sig.node)
    return [
        {
            "index": i,
            "nodes": sorted(nodes[i], key=_node_order),
            "placements": placements[i],
        }
        for i in range(len(ms.slots))
    ]


def schedule_doc(ms) -> dict:
    return {"config": ms.config._asdict(), "slots": slots_doc(ms)}


def native_doc(ms, variant: int, variants) -> dict:
    return {
        "variant": variant,
        "config": ms.config._asdict(),
        "slots": slots_doc(ms, variants[variant]),
    }


def frame_overlaps(placement_records, instance: Instance) -> list:
    """Every pair of co-used signals whose bit ranges intersect in a frame,
    as (signal a, signal b, slot, cycle, lowest shared variant), frames in
    first-use order and pairs in record order inside a frame.  Compares
    all pairs of each frame."""
    H = instance.config.hyperperiod_cycles
    windows = recompute_windows(instance)
    varsets, _, _, _ = conflict_tables(instance)
    length = {s.id: s.length_bits for s in instance.signals}
    frames: dict[tuple[int, int], list] = {}
    for sig, pos in placement_records:
        period = windows[sig.id][2]
        for c in range(max(pos.first_cycle, 0), H, period):
            frames.setdefault((pos.slot, c), []).append((sig.id, pos.offset_bits))
    found = []
    for (slot, c), entries in frames.items():
        for i, (a, off_a) in enumerate(entries):
            for b, off_b in entries[i + 1:]:
                shared = varsets[a] & varsets[b]
                if shared and off_a < off_b + length[b] and off_b < off_a + length[a]:
                    found.append((a, b, slot, c, min(shared)))
    return found


def _violation(rule: str, message: str, **coords) -> dict:
    out = {"rule": rule, "message": message}
    out.update((k, v) for k, v in coords.items() if v is not None)
    return out


def reference_violations(placement_records, slot_nodes, instance: Instance) -> list[dict]:
    """Every rule violation of the schedule, as `Violation.to_dict()` gives
    them, in the validator's order.  Reads the windows, the variant sets
    and the overlaps of every frame from the helpers above, which compare
    all pairs, with no screen: the validator's output must equal this on
    any schedule."""
    hyper = instance.config.hyperperiod_cycles
    width = instance.config.payload_bits
    by_id = {s.id: s for s in instance.signals}
    windows = recompute_windows(instance)
    var_sets, _, _, _ = conflict_tables(instance)

    violations: list[dict] = []
    out = violations.append

    counts: dict[str, int] = {}
    for sig, _pos in placement_records:
        counts[sig.id] = counts.get(sig.id, 0) + 1
    for sid, n in counts.items():
        if n > 1:
            out(
                _violation(
                    "periodicity",
                    f"signal {sid} has {n} placements, expected exactly one",
                    signal=sid,
                )
            )

    # signals required by some variant but absent from the schedule
    for s in instance.signals:
        if s.id not in counts and var_sets[s.id]:
            out(
                _violation(
                    "coverage",
                    f"signal {s.id} required by variant "
                    f"{min(var_sets[s.id])} has no placement",
                    signal=s.id,
                    variant=min(var_sets[s.id]),
                )
            )

    # per-placement checks
    slot_members: dict[int, list[str]] = {}
    for sig, pos in placement_records:
        sid = sig.id
        release_cycle, deadline_cycle, period = windows[sid]
        if not (release_cycle <= pos.first_cycle <= deadline_cycle):
            out(
                _violation(
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
                _violation(
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
                _violation(
                    "payload-bound",
                    f"signal {sid} at offset {pos.offset_bits} with "
                    f"{sig.length_bits} bits exceeds the {width}-bit payload",
                    signal=sid,
                    slot=pos.slot,
                )
            )
        slot_members.setdefault(pos.slot, []).append(sid)

    # overlapping bit ranges are only allowed between signals that never
    # ride in the same variant; reported in entry order per frame
    for sid_a, sid_b, slot, c, shared in frame_overlaps(placement_records, instance):
        out(
            _violation(
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
                    _violation(
                        "node-exclusivity",
                        f"slot {slot} carries nodes "
                        f"{sorted(map(str, nodes))} in variant {j}",
                        slot=slot,
                        variant=j,
                    )
                )

    # a slot's stated nodes against the nodes of the signals it carries
    for i, stated in enumerate(slot_nodes):
        carried = {by_id[sid].node for sid in slot_members.get(i, ())}
        if stated != carried:
            out(
                _violation(
                    "slot-nodes",
                    f"slot {i} states nodes {sorted(map(str, stated))} "
                    f"but carries {sorted(map(str, carried))}",
                    slot=i,
                )
            )
    return violations


# The document readers record by record: each rule is checked where a
# reader that knows nothing of column tables would check it, so the
# package's first faults are compared against these.


def _is_node_id(value) -> bool:
    if isinstance(value, str):
        return value != ""
    return isinstance(value, int) and not isinstance(value, bool)


def _signal(sid, node, period, length, release, deadline) -> Signal:
    """The Signal of one record's values; the first bad field raises."""
    if not isinstance(sid, str) or not sid:
        raise InstanceError("signal id must be a non-empty string")
    if not _is_node_id(node):
        raise InstanceError(
            f"signal {sid}: node must be an integer or a non-empty string, not {node!r}"
        )
    numbers = (period, length, release, deadline)
    for name, value in zip(Signal._fields[2:], numbers):
        if type(value) is not int:
            raise InstanceError(f"signal {sid}: {name} must be an integer, not {value!r}")
    if period <= 0:
        raise InstanceError(f"signal {sid}: period must be positive")
    if length < 1:
        raise InstanceError(f"signal {sid}: length must be >= 1 bit")
    if release < 0:
        raise InstanceError(f"signal {sid}: release must be >= 0")
    if deadline <= 0:
        raise InstanceError(f"signal {sid}: deadline must be positive")
    return tuple.__new__(Signal, (sid, node) + numbers)


def reference_load_instance(doc) -> Instance:
    """`load_instance`, one signal record at a time."""
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    try:
        raw_cfg, raw_signals, raw_variants = doc["config"], doc["signals"], doc["variants"]
    except KeyError as exc:
        raise InstanceError(f"instance document missing key {exc}") from None
    if not isinstance(raw_cfg, dict):
        raise InstanceError("config must be a JSON object")
    if not isinstance(raw_signals, list):
        raise InstanceError("signals must be a list of signal records")
    if not isinstance(raw_variants, list):
        raise InstanceError("variants must be a list of signal-id lists")
    for key in raw_cfg:
        if key not in FlexRayConfig._fields:
            raise InstanceError(f"config: unknown key {key!r}")
    for name in ("cycle_us", "hyperperiod_cycles", "payload_bits"):
        if name not in raw_cfg:
            raise InstanceError(f"malformed config section: {name!r}")
    config = FlexRayConfig(**raw_cfg)
    cycle, hyper = config.cycle_us, config.hyperperiod_cycles

    signals, seen = [], set()
    for raw in raw_signals:
        try:
            period = raw["period_us"]
            sid, node, length = raw["id"], raw["node"], raw["length_bits"]
            release = raw.get("release_us", 0)
            # only a missing deadline means "the period"
            deadline = raw["deadline_us"] if "deadline_us" in raw else period
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"malformed signal record: {exc}") from None
        sig = _signal(sid, node, period, length, release, deadline)
        for key in raw:
            if key not in Signal._fields:
                raise InstanceError(f"signal {sid}: unknown key {key!r}")
        if sid in seen:
            raise InstanceError(f"duplicate signal id {sid!r}")
        seen.add(sid)
        if length > config.payload_bits:
            raise InstanceError(
                f"signal {sid}: signal exceeds frame payload "
                f"({length} > {config.payload_bits} bits)"
            )
        cycles = period // cycle
        if period % cycle or cycles & (cycles - 1):
            raise InstanceError(
                f"signal {sid}: period {period} us is not cycle * 2^n (cycle = {cycle} us)"
            )
        if cycles > hyper:
            raise InstanceError(f"signal {sid}: period {period} us exceeds the hyperperiod")
        signals.append(sig)

    members = []
    for j, group in enumerate(raw_variants):
        if not isinstance(group, list):
            raise InstanceError(f"variant {j} must be a list of signal ids, not {group!r}")
        for sid in group:
            if not isinstance(sid, str):
                raise InstanceError(f"variant {j}: signal ids must be strings, not {sid!r}")
            if sid not in seen:
                raise InstanceError(f"variant {j} references unknown signal {sid!r}")
        members.append(frozenset(group))
    for sig in signals:
        if not any(sig.id in group for group in members):
            raise InstanceError(f"signal {sig.id} not assigned to any variant")
    return tuple.__new__(Instance, (config, tuple(signals), tuple(members)))


def _unknown_key(raw: dict, known: tuple, where: str) -> None:
    for key in raw:
        if key not in known:
            raise ScheduleError(f"{where}: unknown key {key!r}")


def reference_schedule_from_dict(doc, instance: Instance):
    """`schedule_from_dict`, one slot and one placement at a time."""
    if not isinstance(doc, dict) or not isinstance(doc.get("slots"), list):
        raise ScheduleError("schedule document must be an object with a 'slots' list")
    _unknown_key(doc, ("config", "slots"), "schedule document")
    config = instance.config._asdict()
    stated = doc.get("config", config)
    if stated != config or any(type(v) is not int for v in stated.values()):
        raise ScheduleError(
            f"schedule config {stated!r} differs from the instance config {config!r}"
        )
    by_id = {s.id: s for s in instance.signals}
    records, slot_nodes = [], []
    for i, raw_slot in enumerate(doc["slots"]):
        placements = raw_slot.get("placements", []) if isinstance(raw_slot, dict) else None
        if not isinstance(placements, list):
            raise ScheduleError(f"slot {i}: a slot must be an object with a 'placements' list")
        _unknown_key(raw_slot, ("index", "nodes", "placements"), f"slot {i}")
        index = raw_slot.get("index", i)
        if type(index) is not int or index != i:
            raise ScheduleError(f"slot {i}: index is {index!r}, expected {i}")
        nodes = raw_slot.get("nodes", [])
        if not isinstance(nodes, list) or not all(map(_is_node_id, nodes)):
            raise ScheduleError(f"slot {i}: nodes must be a list of node ids, not {nodes!r}")
        slot_nodes.append(set(nodes))
        for raw in placements:
            if not isinstance(raw, dict):
                raise ScheduleError(f"slot {i}: a placement must be an object")
            _unknown_key(raw, ("signal", "first_cycle", "offset_bits"), f"slot {i}: placement")
            sid = raw.get("signal")
            if not isinstance(sid, str) or sid not in by_id:
                raise ScheduleError(f"schedule references unknown signal {sid!r}")
            try:
                first, offset = raw["first_cycle"], raw["offset_bits"]
            except KeyError as exc:
                raise ScheduleError(f"malformed placement for {sid}: {exc}") from None
            if type(first) is not int or type(offset) is not int:
                raise ScheduleError(
                    f"malformed placement for {sid}: first_cycle and offset_bits "
                    f"must be integers, not {first!r} and {offset!r}"
                )
            records.append((by_id[sid], Placement(i, first, offset)))
            if "nodes" not in raw_slot:
                slot_nodes[i].add(by_id[sid].node)
    return records, slot_nodes
