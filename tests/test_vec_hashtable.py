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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.aig import Aig
from repro.commit import InsertionSession
from repro.parallel import vec
from repro.parallel.hashtable import HashTable, NodeHashTable, _hash_key
from repro.parallel.vec import VecHashTable
from repro.verify import forced_gates


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


#: The batched get-or-create sides the per-item loop is the oracle
#: for: the list API with per-miss ``alloc``, the list API with
#: ``alloc_batch`` (plain lists below the gate) and the array API.
_GOC_SIDES = ("alloc", "alloc_batch", "arrays")


def _goc_run(side, gates, num_pis, expected, seeds, batches):
    """Seed a NodeHashTable and run ``batches`` through one side.

    Nodes are allocated in an Aig over ``num_pis`` PIs, so allocation
    order is the Aig's fanin columns and an unknown literal raises
    ``ValueError`` exactly where the allocator would.  Returns the
    per-batch ``(literals, probes)``, the table dump, the fanin
    columns, the ``hashtable.*`` counters and whether (and, for the
    batched sides, after how many nodes of that batch) a batch raised.
    """
    aig = Aig("goc")
    for _ in range(num_pis):
        aig.add_pi()

    def alloc(key0, key1):
        return aig.add_raw_and(key0, key1) >> 1

    def alloc_batch(key0, key1):
        created = aig.add_raw_and_batch(key0, key1)
        if type(created) is list:
            return [lit >> 1 for lit in created]
        return created >> 1

    table = NodeHashTable(expected=expected)
    lits0 = [lit0 for lit0, _ in seeds]
    lits1 = [lit1 for _, lit1 in seeds]
    variables = list(range(500, 500 + len(seeds)))
    outs = []
    raised = None
    observe.enable()
    try:
        with forced_gates(gates):
            if side == "oracle":
                outs.append(
                    [
                        table.seed(lit0, lit1, var)
                        for lit0, lit1, var in zip(lits0, lits1, variables)
                    ]
                )
            else:
                outs.append(table.seed_batch(lits0, lits1, variables))
            for pairs in batches:
                before = aig.num_vars
                try:
                    if side == "oracle":
                        items = [
                            table.get_or_create(lit0, lit1, alloc)
                            for lit0, lit1 in pairs
                        ]
                        got = (
                            [literal for literal, _ in items],
                            [probes for _, probes in items],
                        )
                    elif side == "arrays":
                        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
                        lits, probes = vec.goc_batch_arrays(
                            table, arr[:, 0], arr[:, 1], alloc, alloc_batch
                        )
                        got = (lits.tolist(), probes.tolist())
                    else:
                        got = table.get_or_create_batch(
                            pairs,
                            alloc,
                            alloc_batch if side == "alloc_batch" else None,
                        )
                except ValueError:
                    raised = aig.num_vars - before
                    break
                outs.append(got)
    finally:
        _, registry = observe.disable()
    fanins = (aig._f0c.tolist(), aig._f1c.tolist())
    if raised is not None:
        return outs, None, fanins, None, raised
    return outs, table._table.dump(), fanins, _counters(registry), None


def _goc_differential(num_pis, expected, seeds, batches):
    """Every batched side, at the default gate and with the gate forced
    to 0, against the per-item loop: literals, probes, slot layout,
    allocation order and ``hashtable.*`` counters."""
    oracle = _goc_run("oracle", None, num_pis, expected, seeds, batches)
    for gates in (None, 0):
        for side in _GOC_SIDES:
            got = _goc_run(side, gates, num_pis, expected, seeds, batches)
            where = (side, gates)
            if oracle[4] is not None:
                # A bad literal raises in the same batch; allocating
                # the batch's misses in one call validates them first.
                assert got[4] is not None, where
                assert got[0] == oracle[0], where
                if side != "alloc":
                    assert got[4] == 0, where
                continue
            assert got[4] is None, where
            assert got[0] == oracle[0], where
            assert got[1] == oracle[1], where
            assert got[2] == oracle[2], where
            assert got[3] == oracle[3], where
    return oracle


@pytest.mark.parametrize("seed", range(60))
def test_node_table_get_or_create_fuzz(seed):
    """NodeHashTable batches against per-item seed/get_or_create."""
    rng = random.Random(seed)
    expected = rng.choice([4, 256])
    litspace = rng.choice([6, 50, 800])
    m0 = rng.randrange(0, 50)
    seeds = [
        (rng.randrange(litspace), rng.randrange(litspace))
        for _ in range(m0)
    ]
    batches = []
    for _ in range(rng.randrange(1, 8)):
        m = rng.randrange(0, rng.choice([8, 60, 900]))
        batches.append(
            [
                (rng.randrange(litspace), rng.randrange(litspace))
                for _ in range(m)
            ]
        )
    _goc_differential(litspace // 2, expected, seeds, batches)


def _growth_batch():
    """Eleven distinct misses into a 16-slot table (room for 8), then
    a repeat of the first: the ninth miss grows the table with eight
    sentinels already placed, and the repeat must find the moved one."""
    pairs = [(2 * a, 2 * a + 3) for a in range(1, 12)]
    return [pairs + [pairs[0], pairs[8]]]


_LIT = st.integers(min_value=0, max_value=41)
_PAIRS = st.lists(st.tuples(_LIT, _LIT), max_size=40)


@settings(max_examples=40, deadline=None)
@given(
    expected=st.sampled_from([4, 256]),
    seeds=st.lists(st.tuples(_LIT, _LIT), max_size=12),
    batches=st.lists(_PAIRS, min_size=1, max_size=5),
)
@example(expected=4, seeds=[], batches=_growth_batch())
@example(expected=4, seeds=[(6, 8)], batches=[[(6, 8), (10, 12), (12, 10)]])
@example(expected=4, seeds=[], batches=[[(4, 6), (6, 4)], [(4, 6)]])
@example(expected=4, seeds=[], batches=[[(0, 9), (9, 0), (4, 6)]])
@example(expected=4, seeds=[], batches=[[(1, 9), (9, 1), (4, 6)]])
@example(expected=4, seeds=[], batches=[[(9, 9), (4, 6), (4, 4)]])
@example(expected=4, seeds=[], batches=[[(8, 9), (4, 6), (9, 8)]])
@example(expected=4, seeds=[], batches=[[(4, 6), (8, 10), (4, 90)]])
def test_node_table_get_or_create_cases(expected, seeds, batches):
    """Crafted and generated batches through every batched side: growth
    after sentinels are placed, create-then-hit, each fold rule and an
    unknown literal (which raises before a batched side creates any
    node)."""
    _goc_differential(21, expected, seeds, batches)


# ----------------------------------------------------------------------
# A failed get-or-create batch leaves no sentinel behind
# ----------------------------------------------------------------------


def _session(num_pis: int, expected: int = 64) -> InsertionSession:
    aig = Aig()
    for _ in range(num_pis):
        aig.add_pi()
    return InsertionSession(aig, expected=expected)


def _assert_table_matches_graph(session: InsertionSession) -> None:
    """Every resident is a node of the graph under its own key, and the
    table finds it: no sentinel, no lost probe chain, no stale size."""
    table = session.table._table
    entries = table.dump()
    assert table.size == len(entries)
    for key0, key1, var in entries:
        assert 0 < var < session.aig.num_vars
        assert session.aig.fanins(var) == (key0, key1)
        assert table.lookup(key0, key1)[0] == var


@pytest.mark.parametrize("gates", [None, 0])
def test_failed_batch_leaves_no_sentinel(gates):
    """The unknown literal raises before any node is created; the
    batch's other miss must not stay behind as a negative literal."""
    session = _session(4)
    with forced_gates(gates):
        with pytest.raises(ValueError):
            session.insert_round([(2, 4), (6, 90)])
        assert session.aig.num_vars == 5
        assert session.table._table.lookup(2, 4)[0] is None
        _assert_table_matches_graph(session)
        # As on a table that never saw the failed batch.
        assert session.insert_round([(2, 4)]) == ([10], [2])
        _assert_table_matches_graph(session)


@pytest.mark.parametrize("gates", [None, 0])
def test_failed_batch_after_growth_keeps_residents(gates):
    """A failing batch whose misses grow the table mid-batch: the
    residents stay reachable and a retry of the valid pairs builds the
    same literals as a session that never saw the failure.  Here the
    rehash puts a resident behind a sentinel on one probe chain, so
    merely clearing the sentinels would lose that resident."""
    first = [(16, 26), (7, 20), (42, 57)]
    valid = [
        (16, 41), (13, 51), (3, 37), (2, 11), (10, 30),
        (25, 28), (13, 20), (17, 48), (10, 42), (2, 38),
    ]
    failed = _session(30, expected=4)
    clean = _session(30, expected=4)
    with forced_gates(gates):
        failed.insert_round(first)
        clean.insert_round(first)
        before = failed.aig.num_vars
        with pytest.raises(ValueError):
            failed.insert_round(valid + [(6, 900)])
        if gates is None:
            # One fused loop: validation precedes every allocation.
            assert failed.aig.num_vars == before
        _assert_table_matches_graph(failed)
        got, _ = failed.insert_round(valid)
        want, _ = clean.insert_round(valid)
    assert got == want
    _assert_table_matches_graph(failed)
