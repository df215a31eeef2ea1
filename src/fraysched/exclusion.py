"""Signal and node mutual exclusion, as variant bitsets.

Two signals must never overlap in a multiframe exactly when some variant
uses both of them, and two different nodes must never share a static slot
exactly when some variant carries signals from both.  Both questions are
answered from variant membership alone: every signal and every node gets
one int whose bit j is set iff variant j uses it (for a node: uses any of
its signals), and two of them conflict iff their masks intersect.  The
model costs O(n * V) for n signals and V variants.

The dense n x n signal matrix (SMEM) and m x m node matrix (NMEM) are a
derived view built only on request by `dense_matrices`, for `--mems-dump`
and for tests: smem[a][b] is 1 iff some variant uses both signals, with
the diagonal forced to 1 (a signal never overlaps itself); nmem[p][q] is 1
iff p != q and some variant carries signals from both nodes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

from .core import NodeId, Signal, VariantMatrix


class ConflictModel:
    """Variant membership of every signal and node.

    `variants_of[sid]` lists the variants using a signal in ascending
    order; `signal_mask[sid]` and `node_mask[node]` hold the same sets as
    ints.  `nodes` keeps first-appearance order of the signal list, and
    `variant_count` counts every variant, empty ones too.
    """

    def __init__(
        self, signals: Sequence[Signal], variants_of: dict[str, list[int]], variant_count: int
    ):
        self.signal_ids = tuple(s.id for s in signals)
        self.variant_count = variant_count
        self.variants_of = variants_of
        bits = [1 << j for j in range(variant_count)]
        self.signal_mask = {sid: sum(map(bits.__getitem__, vs)) for sid, vs in variants_of.items()}
        self.node_mask: dict[NodeId, int] = {}
        for s in signals:
            self.node_mask[s.node] = self.node_mask.get(s.node, 0) | self.signal_mask[s.id]
        self.nodes = tuple(self.node_mask)


def compute_mems(
    signals: Sequence[Signal], variants: VariantMatrix
) -> ConflictModel:
    """Variant sets of every signal and node, from the membership lists.
    The one inversion of membership that scheduling and rendering use."""
    variants_of: dict[str, list[int]] = {s.id: [] for s in signals}
    for j, group in enumerate(variants.members):
        for vs in map(variants_of.get, group):
            if vs is not None:
                vs.append(j)
    return ConflictModel(signals, variants_of, variants.count)


Matrix = list[list[bool]]


def dense_matrices(mems: ConflictModel) -> tuple[Matrix, Matrix]:
    """(SMEM, NMEM) as lists of bool rows in `signal_ids` / `nodes` order.

    O(n^2) memory; the scheduler never calls this.
    """

    def co_used(masks: list[int], diagonal: bool) -> Matrix:
        return [
            [diagonal if i == k else bool(a & b) for k, b in enumerate(masks)]
            for i, a in enumerate(masks)
        ]

    smem = co_used([mems.signal_mask[sid] for sid in mems.signal_ids], True)
    nmem = co_used([mems.node_mask[nd] for nd in mems.nodes], False)
    return smem, nmem


def dump_mems_csv(mems: ConflictModel, out_dir: Union[str, Path]) -> None:
    """Write both matrices as 0/1 CSV grids with id headers (debug aid)."""
    import csv

    smem, nmem = dense_matrices(mems)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "smem.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([""] + list(mems.signal_ids))
        for i, sid in enumerate(mems.signal_ids):
            w.writerow([sid] + [int(x) for x in smem[i]])
    with open(out / "nmem.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([""] + [str(nd) for nd in mems.nodes])
        for i, nd in enumerate(mems.nodes):
            w.writerow([str(nd)] + [int(x) for x in nmem[i]])
