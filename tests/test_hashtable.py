"""Unit tests for the batched linear-probing hash table.

Each case runs :class:`repro.parallel.hashtable.HashTable` next to the
per-item oracle ``tests/hashtable_reference.py`` and checks both the
expected result and that the two tables agree (results, probes and
slot layout).
"""

import numpy as np

from repro.aig.aig import Aig
from repro.parallel.hashtable import HashTable
from tests import hashtable_reference as reference


def _twins(expected: int = 1024):
    table = HashTable(expected=expected)
    oracle = reference.HashTable(expected=expected)
    assert table.capacity == oracle.capacity
    return table, oracle


def _insert(table, oracle, keys, values):
    """One batch through both tables; returns the production result as
    lists after checking it against the oracle."""
    key0 = [key for key, _ in keys]
    key1 = [key for _, key in keys]
    resident, probes = table.insert_batch(key0, key1, values)
    got = (resident.tolist(), probes.tolist())
    assert got == oracle.insert_batch(keys, values)
    assert table.dump() == oracle.dump()
    assert table.size == oracle.size
    return got


def _alloc_into(aig):
    def alloc(key0, key1):
        return [lit >> 1 for lit in aig.add_raw_and_batch(key0, key1)]

    return alloc


def test_insert_then_lookup():
    table, oracle = _twins()
    (value,), (probes,) = _insert(table, oracle, [(2, 4)], [10])
    assert value == 10
    assert probes >= 1
    # Re-inserting a resident key reads its value back.
    assert _insert(table, oracle, [(2, 4)], [77])[0] == [10]


def test_duplicate_insert_returns_resident():
    table, oracle = _twins()
    _insert(table, oracle, [(2, 4)], [10])
    values, _ = _insert(table, oracle, [(2, 4)], [99])
    assert values == [10]  # first writer wins, like atomicCAS
    assert table.size == 1


def test_lookup_missing():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    table = HashTable()
    oracle = reference.HashTable()
    literals, probes = table.get_or_create([a], [b], _alloc_into(aig))
    assert probes.tolist() == [2]  # lookup miss + insert, one probe each
    assert oracle.lookup(a, b) == (None, 1)
    assert literals.tolist() == [aig.num_vars * 2 - 2]


def test_growth_preserves_entries():
    table, oracle = _twins(expected=4)
    keys = [(i * 2, i * 2 + 4) for i in range(500)]
    values = list(range(500))
    _insert(table, oracle, keys, values)
    assert table.size == 500
    assert table.capacity >= 1000
    assert _insert(table, oracle, keys, [-1] * 500)[0] == values


def test_dump_returns_all_pairs():
    table, oracle = _twins()
    keys = [(index, index + 1) for index in range(50)]
    values = [index * 3 for index in range(50)]
    _insert(table, oracle, keys, values)
    assert set(table.dump()) == {
        (key0, key1, value) for (key0, key1), value in zip(keys, values)
    }


def test_batch_operations():
    table, oracle = _twins()
    values, works = _insert(
        table, oracle, [(1, 2), (3, 4), (1, 2)], [10, 20, 30]
    )
    assert values == [10, 20, 10]
    assert len(works) == 3
    assert sorted(table.dump()) == [(1, 2, 10), (3, 4, 20)]
    empty = table.insert_batch([], [], [])
    assert [part.tolist() for part in empty] == [[], []]


def test_probe_counts_reflect_collisions():
    table, oracle = _twins(expected=64)
    keys = [(index, index) for index in range(40)]
    _, probes = _insert(table, oracle, keys, list(range(40)))
    assert sum(probes) >= 40  # at least one probe each


def test_deterministic_across_runs():
    def run():
        table, oracle = _twins(expected=16)
        keys = [(index % 7, index % 11) for index in range(100)]
        out, _ = _insert(table, oracle, keys, list(range(100)))
        return out, table.dump()

    assert run() == run()


# ----------------------------------------------------------------------
# Sharing-aware node creation
# ----------------------------------------------------------------------


def test_node_table_folding_rules():
    aig = Aig()
    a = aig.add_pi()
    table = HashTable()
    literals, probes = table.get_or_create(
        [a, a, a, a], [0, 1, a, a ^ 1], _alloc_into(aig)
    )
    assert literals.tolist() == [0, a, a, 0]
    assert probes.tolist() == [0, 0, 0, 0]
    assert aig.num_ands == 0  # nothing allocated
    assert table.size == 0


def test_node_table_shares_nodes():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    table = HashTable()
    alloc = _alloc_into(aig)
    first, _ = table.get_or_create([a], [b], alloc)
    second, _ = table.get_or_create([b], [a], alloc)
    assert first.tolist() == second.tolist()
    assert aig.num_ands == 1
    both, _ = table.get_or_create(np.array([a, b]), np.array([b, a]), alloc)
    assert both.tolist() == first.tolist() * 2
    assert aig.num_ands == 1


def test_node_table_seeding():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    existing = aig.add_and(a, b)
    table = HashTable()
    oracle = reference.HashTable()
    probes = table.seed_batch([b], [a], [existing >> 1])
    assert probes.tolist() == [oracle.seed(b, a, existing >> 1)]
    assert table.dump() == oracle.dump()

    def alloc(key0, key1):
        raise AssertionError("should reuse the seeded node")

    literals, _ = table.get_or_create([a], [b], alloc)
    assert literals.tolist() == [existing]
    assert oracle.get_or_create(a, b, alloc)[0] == existing
