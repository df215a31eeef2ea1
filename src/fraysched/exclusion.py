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
derived view built only on request, one row at a time: `dense_matrices`
keeps every row, for tests, and `dump_mems_csv` (`--mems-dump`) writes
each row as it is built.  smem[a][b] is 1 iff some variant uses both
signals, with the diagonal forced to 1 (a signal never overlaps itself);
nmem[p][q] is 1 iff p != q and some variant carries signals from both
nodes.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import or_
from pathlib import Path
from typing import Iterator, Sequence, Union

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
    of the signals variant j uses; every such id must be one of `signals`,
    as a checked `Instance` guarantees.  The one inversion of membership
    that scheduling and rendering use."""
    variants_of: dict[str, list[int]] = {s.id: [] for s in signals}
    for j, group in enumerate(variants):
        for vs in map(variants_of.__getitem__, group):
            vs.append(j)
    bits = [1 << j for j in range(len(variants))]
    node_mask: dict[NodeId, int] = {}
    for s in signals:
        mask = sum(map(bits.__getitem__, variants_of[s.id]))
        node_mask[s.node] = node_mask.get(s.node, 0) | mask
    return ConflictModel(variants_of, node_mask, len(variants))


Matrix = list[list[bool]]


def _co_used_rows(variant_lists: list[list[int]], diagonal: bool) -> Iterator[str]:
    """Rows of the matrix whose entry (i, k) is 1 iff lists i and k share a
    variant index, `diagonal` on the diagonal, each as a string of '0' and '1'.

    Row i is the OR of one n-bit int per variant j in list i, the set of
    lists that hold j, so a row costs a few big-int ORs and only one row is
    held at a time.
    """
    users: dict[int, int] = defaultdict(int)
    for k, js in enumerate(variant_lists):
        for j in js:
            users[j] |= 1 << k
    width = "0%db" % len(variant_lists)
    for i, js in enumerate(variant_lists):
        row = reduce(or_, map(users.__getitem__, js), 0)
        row = row | 1 << i if diagonal else row & ~(1 << i)
        # format() puts bit 0 last
        yield format(row, width)[::-1]


def _matrix_rows(mems: ConflictModel) -> tuple[Iterator[str], Iterator[str]]:
    """Row iterators of SMEM and NMEM, signals and nodes in the model's
    order."""
    node_lists = [
        [j for j in range(mems.variant_count) if mask >> j & 1]
        for mask in mems.node_mask.values()
    ]
    return (
        _co_used_rows(list(mems.variants_of.values()), True),
        _co_used_rows(node_lists, False),
    )


def dense_matrices(mems: ConflictModel) -> tuple[Matrix, Matrix]:
    """(SMEM, NMEM) as lists of bool rows, signals and nodes in the model's
    order.

    O(n^2) memory; the scheduler never calls this.
    """
    smem, nmem = _matrix_rows(mems)
    return (
        [list(map("1".__eq__, row)) for row in smem],
        [list(map("1".__eq__, row)) for row in nmem],
    )


def dump_mems_csv(mems: ConflictModel, out_dir: Union[str, Path]) -> None:
    """Write both matrices as 0/1 CSV grids with id headers (debug aid).

    Each row is written as it is built, so memory stays linear in the
    number of signals.
    """
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = (
        ("smem.csv", list(mems.variants_of)),
        ("nmem.csv", [str(nd) for nd in mems.node_mask]),
    )
    for (name, ids), rows in zip(tables, _matrix_rows(mems)):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow([""] + ids)
            for key, row in zip(ids, rows):
                w.writerow([key, *row])
