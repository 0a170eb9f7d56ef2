"""Differential tests for the NumPy hash-table engine.

The vectorized table (:class:`repro.parallel.vec.VecHashTable`) must be
bit-identical to the scalar :class:`repro.parallel.hashtable.HashTable`:
same resident values, same per-item probe counts, same final slot
layout, same ``hashtable.*`` counters.  These tests drive both engines
through crafted collision batches and randomized insert sequences and
compare everything; the :class:`~repro.parallel.hashtable.NodeHashTable` fuzz
compares its batched calls against its per-item ``seed`` /
``get_or_create`` reference.
"""

from __future__ import annotations

import random

import pytest

from repro import observe
from repro.parallel import vec
from repro.parallel.hashtable import HashTable, NodeHashTable, _hash_key
from repro.parallel.vec import VecHashTable


@pytest.fixture
def force_vec(monkeypatch):
    """Route even tiny batches through the vectorized paths."""
    monkeypatch.setattr(vec, "_SCALAR_CUTOFF", 0)


def _twin_tables(expected: int = 4) -> tuple[HashTable, VecHashTable]:
    scalar = HashTable(expected=expected)
    vector = VecHashTable(expected=scalar.capacity // 2)
    assert scalar.capacity == vector.capacity
    return scalar, vector


def _colliding_keys(capacity: int, count: int) -> list[tuple[int, int]]:
    """``count`` distinct keys hashing to one bucket of ``capacity``."""
    mask = capacity - 1
    bucket = _hash_key(0, 0) & mask
    keys = []
    key0 = 0
    while len(keys) < count:
        if _hash_key(key0, 7) & mask == bucket:
            keys.append((key0, 7))
        key0 += 1
    return keys


def _compare_batch(scalar, vector, keys, values):
    got_s = scalar.insert_batch(keys, values)
    got_v = vector.insert_batch(keys, values)
    assert got_s == got_v
    assert scalar.dump() == vector.dump()
    assert scalar.size == vector.size
    assert scalar.capacity == vector.capacity
    return got_s


# ----------------------------------------------------------------------
# Crafted collision batches (probe-conflict resolution)
# ----------------------------------------------------------------------


def test_single_bucket_collision_batch(force_vec):
    """All keys probe the same slot: probes must be 1, 2, 3, ..."""
    scalar, vector = _twin_tables(expected=4)
    keys = _colliding_keys(scalar.capacity, 6)
    values = [100 + i for i in range(len(keys))]
    out, works = _compare_batch(scalar, vector, keys, values)
    assert out == values
    assert works == list(range(1, len(keys) + 1))


def test_duplicate_keys_in_batch_first_wins(force_vec):
    """Same key many times in one batch: the first value is resident."""
    scalar, vector = _twin_tables(expected=4)
    keys = [(9, 9)] * 5 + [(3, 4)] * 3
    values = [10, 11, 12, 13, 14, 20, 21, 22]
    out, _ = _compare_batch(scalar, vector, keys, values)
    assert out == [10, 10, 10, 10, 10, 20, 20, 20]


def test_eviction_wraparound_near_full(force_vec):
    """Probe sequences that wrap past the end of the slot array."""
    scalar, vector = _twin_tables(expected=4)
    capacity = scalar.capacity
    mask = capacity - 1
    # Keys biased into the last two buckets force wraparound probing.
    keys = []
    key0 = 0
    while len(keys) < capacity // 2 - 1:
        if _hash_key(key0, 3) & mask >= capacity - 2:
            keys.append((key0, 3))
        key0 += 1
    values = list(range(len(keys)))
    _compare_batch(scalar, vector, keys, values)
    # Re-inserting resident keys walks the wrapped paths as hits.
    out, _ = _compare_batch(scalar, vector, keys, [-1] * len(keys))
    assert out == values


def test_growth_mid_batch(force_vec):
    """One batch large enough to trigger several doublings."""
    scalar, vector = _twin_tables(expected=4)
    rng = random.Random(7)
    keys = [(rng.randrange(10_000), rng.randrange(10_000)) for _ in range(600)]
    values = list(range(len(keys)))
    out, _ = _compare_batch(scalar, vector, keys, values)
    assert scalar.capacity > 16
    assert _compare_batch(scalar, vector, keys, values)[0] == out


def test_empty_batches(force_vec):
    scalar, vector = _twin_tables(expected=4)
    assert _compare_batch(scalar, vector, [], []) == ([], [])


def test_scalar_cutoff_boundary():
    """Batches just below/above the cutoff give identical results."""
    cutoff = vec._SCALAR_CUTOFF
    for n in (cutoff - 1, cutoff, cutoff + 1):
        scalar, vector = _twin_tables(expected=4)
        rng = random.Random(n)
        keys = [(rng.randrange(200), rng.randrange(200)) for _ in range(n)]
        values = list(range(n))
        out, _ = _compare_batch(scalar, vector, keys, values)
        assert _compare_batch(scalar, vector, keys, values)[0] == out


# ----------------------------------------------------------------------
# Randomized differential fuzz (ops, layout, counters)
# ----------------------------------------------------------------------


def _counters(registry) -> dict[str, int]:
    return {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("hashtable")
    }


@pytest.mark.parametrize("seed", range(60))
def test_mixed_op_fuzz_differential(seed):
    """Random insert-batch sequences: outputs, layout, counters."""
    rng = random.Random(seed)
    scalar = HashTable(expected=rng.choice([4, 64, 1024]))
    vector = VecHashTable(expected=scalar.capacity // 2)
    keyspace = rng.choice([8, 60, 400, 5000])
    batches = []
    for _ in range(rng.randrange(1, 12)):
        m = rng.randrange(0, rng.choice([8, 40, 300, 3000]))
        keys = [
            (rng.randrange(keyspace), rng.randrange(keyspace))
            for _ in range(m)
        ]
        values = [rng.randrange(10**6) for _ in range(m)]
        batches.append((keys, values))

    outs = {}
    counters = {}
    for name, table in (("scalar", scalar), ("vector", vector)):
        observe.enable()
        got = [
            table.insert_batch(keys, values) for keys, values in batches
        ]
        _, registry = observe.disable()
        outs[name] = got
        counters[name] = _counters(registry)

    assert outs["scalar"] == outs["vector"]
    assert scalar.dump() == vector.dump()
    assert counters["scalar"] == counters["vector"]


@pytest.mark.parametrize("seed", range(60))
def test_node_table_get_or_create_fuzz(seed):
    """NodeHashTable batches against per-item seed/get_or_create."""
    results = []
    for batched in (False, True):
        rng = random.Random(seed)
        observe.enable()
        table = NodeHashTable(expected=rng.choice([4, 256]))
        next_var = [100]

        def alloc(key0, key1):
            next_var[0] += 1
            return next_var[0]

        outs = []
        litspace = rng.choice([6, 50, 800])
        m0 = rng.randrange(0, 50)
        lits0 = [rng.randrange(litspace) for _ in range(m0)]
        lits1 = [rng.randrange(litspace) for _ in range(m0)]
        variables = list(range(500, 500 + m0))
        if batched:
            outs.append(table.seed_batch(lits0, lits1, variables))
        else:
            outs.append(
                [
                    table.seed(lit0, lit1, var)
                    for lit0, lit1, var in zip(lits0, lits1, variables)
                ]
            )
        for _ in range(rng.randrange(1, 8)):
            m = rng.randrange(0, rng.choice([8, 60, 900]))
            pairs = [
                (rng.randrange(litspace), rng.randrange(litspace))
                for _ in range(m)
            ]
            if batched:
                outs.append(table.get_or_create_batch(pairs, alloc))
                continue
            items = [
                table.get_or_create(lit0, lit1, alloc)
                for lit0, lit1 in pairs
            ]
            outs.append(
                (
                    [literal for literal, _ in items],
                    [probes for _, probes in items],
                )
            )
        _, registry = observe.disable()
        results.append(
            (outs, table._table.dump(), next_var[0], _counters(registry))
        )

    (outs_s, dump_s, alloc_s, counters_s) = results[0]
    (outs_b, dump_b, alloc_b, counters_b) = results[1]
    assert outs_s == outs_b
    assert dump_s == dump_b
    assert alloc_s == alloc_b
    assert counters_s == counters_b
