import hashlib
import random

import pytest

from fraysched.core import load_instance
from fraysched.exclusion import ConflictModel, compute_mems, dense_matrices, dump_mems_csv

from oracles import make_random_instance, nodes_conflict, signals_conflict


class TestExample1:
    def test_conflict_queries(self, example1):
        mems = compute_mems(example1.signals, example1.variants)
        assert not signals_conflict(mems, "A", "E")
        assert signals_conflict(mems, "B", "C")
        for sid in ("A", "E", "H"):
            assert signals_conflict(mems, sid, sid)

    def test_unknown_id_raises(self, example1):
        mems = compute_mems(example1.signals, example1.variants)
        with pytest.raises(KeyError):
            signals_conflict(mems, "A", "missing")
        with pytest.raises(KeyError):
            nodes_conflict(mems, 1, 99)


def test_single_variant_all_conflict():
    doc = {
        "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
        "signals": [
            {"id": f"s{i}", "node": i + 1, "period_us": 1000, "length_bits": 2}
            for i in range(3)
        ],
        "variants": [["s0", "s1", "s2"]],
    }
    inst = load_instance(doc)
    mems = compute_mems(inst.signals, inst.variants)
    smem, nmem = dense_matrices(mems)
    assert all(all(row) for row in smem)
    expected_nmem = [[i != k for k in range(3)] for i in range(3)]
    assert nmem == expected_nmem


def brute_force_mems(instance):
    n = len(instance.signals)
    ids = [s.id for s in instance.signals]
    smem = [[i == j for j in range(n)] for i in range(n)]
    for group in instance.variants:
        for i in range(n):
            for j in range(n):
                if ids[i] in group and ids[j] in group:
                    smem[i][j] = True
    nodes = list(dict.fromkeys(s.node for s in instance.signals))
    m = len(nodes)
    nmem = [[False] * m for _ in range(m)]
    for group in instance.variants:
        present = {s.node for s in instance.signals if s.id in group}
        for p in range(m):
            for q in range(m):
                if p != q and nodes[p] in present and nodes[q] in present:
                    nmem[p][q] = True
    return smem, nmem, tuple(nodes)


def test_matches_brute_force_on_random_instances():
    rng = random.Random(2024)
    for _ in range(80):
        inst = make_random_instance(rng, max_signals=30, max_nodes=3, max_variants=8)
        mems = compute_mems(inst.signals, inst.variants)
        smem, nmem, nodes = brute_force_mems(inst)
        got_smem, got_nmem = dense_matrices(mems)
        assert got_smem == smem
        assert got_nmem == nmem
        assert tuple(mems.node_mask) == nodes


def test_adding_a_variant_is_monotone():
    rng = random.Random(5)
    for _ in range(30):
        inst = make_random_instance(rng, max_signals=10, max_variants=3)
        mems_before = compute_mems(inst.signals, inst.variants)
        extra = frozenset(
            s.id for s in inst.signals if rng.random() < 0.5
        )
        from fraysched.core import Instance

        grown = Instance(inst.config, inst.signals, inst.variants + (extra,))
        mems_after = compute_mems(grown.signals, grown.variants)
        smem_before, nmem_before = dense_matrices(mems_before)
        smem_after, nmem_after = dense_matrices(mems_after)
        # entries may flip 0 -> 1, never 1 -> 0
        for before, after in ((smem_before, smem_after), (nmem_before, nmem_after)):
            assert all(
                b <= a for rb, ra in zip(before, after) for b, a in zip(rb, ra)
            )


def test_mixed_node_ids():
    doc = {
        "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
        "signals": [
            {"id": "a", "node": 1, "period_us": 1000, "length_bits": 2},
            {"id": "b", "node": "gw", "period_us": 1000, "length_bits": 2},
            {"id": "c", "node": "1", "period_us": 1000, "length_bits": 2},
        ],
        "variants": [["a", "b"], ["c"]],
    }
    inst = load_instance(doc)
    mems = compute_mems(inst.signals, inst.variants)
    assert tuple(mems.node_mask) == (1, "gw", "1")
    assert nodes_conflict(mems, 1, "gw")
    assert not nodes_conflict(mems, 1, "1")
    assert not nodes_conflict(mems, "gw", "1")
    _, nmem = dense_matrices(mems)
    assert nmem == [[False, True, False], [True, False, False],
                    [False, False, False]]


def test_model_holds_no_dense_matrix():
    # the scheduler's conflict model is O(n * V); the n x n view is built
    # only by an explicit dense_matrices call
    rng = random.Random(3)
    inst = make_random_instance(rng, max_signals=30)
    mems = compute_mems(inst.signals, inst.variants)
    assert not hasattr(mems, "smem") and not hasattr(mems, "nmem")
    n = len(inst.signals)

    def n_rows(value):
        return (
            isinstance(value, (list, tuple))
            and len(value) == n
            and all(isinstance(row, (list, tuple)) and len(row) == n for row in value)
        )

    assert n_rows(dense_matrices(mems)[0])
    assert not any(n_rows(v) for v in vars(mems).values())


def test_csv_dump(tmp_path, example1):
    mems = compute_mems(example1.signals, example1.variants)
    dump_mems_csv(mems, tmp_path)
    smem_lines = (tmp_path / "smem.csv").read_text().strip().splitlines()
    assert smem_lines[0] == ",A,B,C,D,E,F,G,H"
    row_a = smem_lines[1].split(",")
    assert row_a[0] == "A"
    assert row_a[1:] == ["1", "1", "1", "1", "0", "1", "1", "0"]
    nmem_lines = (tmp_path / "nmem.csv").read_text().strip().splitlines()
    assert nmem_lines[0] == ",1,2,3"
    assert nmem_lines[1] == "1,0,1,1"


# sha256 of the `schedule --mems-dump` CSV files, recorded before the dense
# view stopped using numpy; the bytes must not move
MEMS_DUMP_DIGESTS = {
    "example1": {
        "smem.csv": "92b8662b02d2f20c06b765b8d9eb6b3c1d8d293e1b0cb316deabdb10b09b0ae5",
        "nmem.csv": "2cddbd0f4438bb31e0608b66215f1000f30a72ad15e005070bef57cead8b56bd",
    },
    "set5": {
        "smem.csv": "90b87100ea500d2e3cd33c903f6f29ff2ef8f1afcba4487f779d5217bd516b57",
        "nmem.csv": "6d63b5456fc123b2d4236f52aa8ba52c9a23f7914abec39a68adf2a19e3529a7",
    },
}


@pytest.mark.parametrize("name", sorted(MEMS_DUMP_DIGESTS))
def test_mems_dump_bytes_are_pinned(tmp_path, example1_instance_path, name):
    from fraysched import cli

    if name == "example1":
        instance = example1_instance_path
    else:
        instance = tmp_path / "set5.json"
        assert cli.main(["generate", "--profile", "set5", "--seed", "0",
                         "--out", str(instance)]) == 0
    dump = tmp_path / "dump"
    assert cli.main(["schedule", str(instance), "--out", str(tmp_path / "s.json"),
                     "--mems-dump", str(dump)]) == 0
    got = {
        f: hashlib.sha256((dump / f).read_bytes()).hexdigest()
        for f in ("smem.csv", "nmem.csv")
    }
    assert got == MEMS_DUMP_DIGESTS[name]


def test_mems_dump_peak_memory_is_linear(tmp_path):
    # --mems-dump writes each matrix row as it is built: on 2000 signals the
    # dump's peak allocation stays a small multiple of n bytes, where the
    # 2000 x 2000 grid held at once takes 32 MB in list slots alone
    import tracemalloc

    n = 2000
    rng = random.Random(17)
    variants_of = {f"s{i}": sorted(rng.sample(range(8), rng.randint(1, 3))) for i in range(n)}
    node_mask: dict = {}
    for i, vs in enumerate(variants_of.values()):
        node_mask[i % 7] = node_mask.get(i % 7, 0) | sum(1 << j for j in vs)
    mems = ConflictModel(variants_of, node_mask, 8)
    tracemalloc.start()
    try:
        dump_mems_csv(mems, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * n
    smem = (tmp_path / "smem.csv").read_text().splitlines()
    assert len(smem) == n + 1
    assert smem[1].split(",")[1:] == [str(int(x)) for x in dense_matrices(mems)[0][0]]
