"""Signal and node mutual exclusion, as variant bitsets.

Two signals must never overlap in a multiframe exactly when some variant
uses both of them, and two different nodes must never share a static slot
exactly when some variant carries signals from both.  Both questions are
answered from variant membership alone: every signal carries the sorted
list of the variants using it, and two signals conflict iff their lists
share a variant; every node carries one int whose bit j is set iff
variant j uses any of its signals, and two nodes conflict iff their masks
intersect.  The model costs O(n * V) for n signals and V variants.

The dense n x n signal matrix (SMEM) and m x m node matrix (NMEM) are a
derived view built only on request by `dense_matrices`, for `--mems-dump`
and for tests: smem[a][b] is 1 iff some variant uses both signals, with
the diagonal forced to 1 (a signal never overlaps itself); nmem[p][q] is 1
iff p != q and some variant carries signals from both nodes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

from .core import NodeId, Signal


class ConflictModel:
    """Variant membership of every signal and node.

    `variants_of[sid]` lists the variants using a signal in ascending
    order, signals in input order; `node_mask[node]` has bit j set iff
    variant j uses one of the node's signals, nodes in first-appearance
    order of the signal list.  `variant_count` counts every variant, empty
    ones too.
    """

    def __init__(self, variants_of: dict[str, list[int]], node_mask: dict, variant_count: int):
        self.variants_of = variants_of
        self.node_mask = node_mask
        self.variant_count = variant_count


def compute_mems(
    signals: Sequence[Signal], variants: Sequence[frozenset[str]]
) -> ConflictModel:
    """Variant sets of every signal and node, from `variants[j]`, the ids
    of the signals variant j uses; ids not in `signals` are skipped.  The
    one inversion of membership that scheduling and rendering use."""
    variants_of: dict[str, list[int]] = {s.id: [] for s in signals}
    for j, group in enumerate(variants):
        for vs in map(variants_of.get, group):
            if vs is not None:
                vs.append(j)
    bits = [1 << j for j in range(len(variants))]
    node_mask: dict[NodeId, int] = {}
    for s in signals:
        mask = sum(map(bits.__getitem__, variants_of[s.id]))
        node_mask[s.node] = node_mask.get(s.node, 0) | mask
    return ConflictModel(variants_of, node_mask, len(variants))


Matrix = list[list[bool]]


def dense_matrices(mems: ConflictModel) -> tuple[Matrix, Matrix]:
    """(SMEM, NMEM) as lists of bool rows, signals and nodes in the model's
    order.

    O(n^2) memory; the scheduler never calls this.
    """

    def co_used(masks: list[int], diagonal: bool) -> Matrix:
        return [
            [diagonal if i == k else bool(a & b) for k, b in enumerate(masks)]
            for i, a in enumerate(masks)
        ]

    smem = co_used([sum(1 << j for j in vs) for vs in mems.variants_of.values()], True)
    nmem = co_used(list(mems.node_mask.values()), False)
    return smem, nmem


def dump_mems_csv(mems: ConflictModel, out_dir: Union[str, Path]) -> None:
    """Write both matrices as 0/1 CSV grids with id headers (debug aid)."""
    import csv

    smem, nmem = dense_matrices(mems)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "smem.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([""] + list(mems.variants_of))
        for i, sid in enumerate(mems.variants_of):
            w.writerow([sid] + [int(x) for x in smem[i]])
    with open(out / "nmem.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([""] + [str(nd) for nd in mems.node_mask])
        for i, nd in enumerate(mems.node_mask):
            w.writerow([str(nd)] + [int(x) for x in nmem[i]])
