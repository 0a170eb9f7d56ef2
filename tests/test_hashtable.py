"""Unit tests for the batched linear-probing hash table."""

from repro.aig.aig import Aig
from repro.parallel.hashtable import HashTable, NodeHashTable


def test_insert_then_lookup():
    table = HashTable()
    value, probes = table.insert(2, 4, 10)
    assert value == 10
    assert probes >= 1
    found, _ = table.lookup(2, 4)
    assert found == 10


def test_duplicate_insert_returns_resident():
    table = HashTable()
    table.insert(2, 4, 10)
    value, _ = table.insert(2, 4, 99)
    assert value == 10  # first writer wins, like atomicCAS
    assert table.size == 1


def test_lookup_missing():
    table = HashTable()
    value, probes = table.lookup(1, 2)
    assert value is None
    assert probes >= 1


def test_growth_preserves_entries():
    table = HashTable(expected=4)
    pairs = [(i * 2, i * 2 + 4, i) for i in range(500)]
    for key0, key1, value in pairs:
        table.insert(key0, key1, value)
    assert table.size == 500
    assert table.capacity >= 1000
    for key0, key1, value in pairs:
        assert table.lookup(key0, key1)[0] == value


def test_dump_returns_all_pairs():
    table = HashTable()
    expected = set()
    for index in range(50):
        table.insert(index, index + 1, index * 3)
        expected.add((index, index + 1, index * 3))
    assert set(table.dump()) == expected


def test_batch_operations():
    table = HashTable()
    keys = [(1, 2), (3, 4), (1, 2)]
    values, works = table.insert_batch(keys, [10, 20, 30])
    assert values == [10, 20, 10]
    assert len(works) == 3
    assert sorted(table.dump()) == [(1, 2, 10), (3, 4, 20)]
    assert table.lookup(3, 4)[0] == 20
    assert table.lookup(9, 9)[0] is None


def test_probe_counts_reflect_collisions():
    table = HashTable(expected=64)
    total_probes = 0
    for index in range(40):
        _, probes = table.insert(index, index, index)
        total_probes += probes
    assert total_probes >= 40  # at least one probe each


def test_deterministic_across_runs():
    def run():
        table = HashTable(expected=16)
        out = []
        for index in range(100):
            value, _ = table.insert(index % 7, index % 11, index)
            out.append(value)
        return out, table.dump()

    assert run() == run()


# ----------------------------------------------------------------------
# NodeHashTable
# ----------------------------------------------------------------------


def test_node_table_folding_rules():
    aig = Aig()
    a = aig.add_pi()
    table = NodeHashTable()

    def alloc(key0, key1):
        return aig.add_raw_and(key0, key1) >> 1

    assert table.get_or_create(a, 0, alloc)[0] == 0
    assert table.get_or_create(a, 1, alloc)[0] == a
    assert table.get_or_create(a, a, alloc)[0] == a
    assert table.get_or_create(a, a ^ 1, alloc)[0] == 0
    assert aig.num_ands == 0  # nothing allocated


def test_node_table_shares_nodes():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    table = NodeHashTable()

    def alloc(key0, key1):
        return aig.add_raw_and(key0, key1) >> 1

    first, _ = table.get_or_create(a, b, alloc)
    second, _ = table.get_or_create(b, a, alloc)
    assert first == second
    assert aig.num_ands == 1


def test_node_table_seeding():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    existing = aig.add_and(a, b)
    table = NodeHashTable()
    table.seed(a, b, existing >> 1)

    def alloc(key0, key1):
        raise AssertionError("should reuse the seeded node")

    literal, _ = table.get_or_create(a, b, alloc)
    assert literal == existing
