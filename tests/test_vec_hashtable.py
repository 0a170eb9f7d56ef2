"""Differential tests of the batched hash table against its oracle.

The array-backed :class:`repro.parallel.hashtable.HashTable` must be
bit-identical to the per-item table of ``tests/hashtable_reference.py``:
same resident values, same per-item probe counts, same final slot
layout, same ``hashtable.*`` counters.  These tests drive both through
crafted collision batches and randomized sequences of raw inserts,
seeds and get-or-create batches — the latter at the default size gate
and with the gate forced to 0 — and compare everything.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.aig import Aig
from repro.commit import InsertionSession
from repro.engine import run_script
from repro.parallel import hashtable
from repro.parallel.hashtable import HashTable
from repro.verify import forced_gates, sanitizer
from repro.verify.sanitizer import Sanitizer
from tests.conftest import build_random_aig
from tests.hashtable_reference import HashTable as ReferenceTable
from tests.hashtable_reference import _hash_key


def _twin_tables(expected: int = 4) -> tuple[ReferenceTable, HashTable]:
    scalar = ReferenceTable(expected=expected)
    vector = HashTable(expected=scalar.capacity // 2)
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


def _insert_columns(table, keys, values):
    """``insert_batch`` of a pair list, results back as lists."""
    resident, probes = table.insert_batch(
        [key0 for key0, _ in keys], [key1 for _, key1 in keys], values
    )
    return resident.tolist(), probes.tolist()


def _compare_batch(scalar, vector, keys, values):
    got_s = scalar.insert_batch(keys, values)
    got_v = _insert_columns(vector, keys, values)
    assert got_s == got_v
    assert scalar.dump() == vector.dump()
    assert scalar.size == vector.size
    assert scalar.capacity == vector.capacity
    return got_s


# ----------------------------------------------------------------------
# Crafted collision batches (probe-conflict resolution)
# ----------------------------------------------------------------------


def test_single_bucket_collision_batch():
    """All keys probe the same slot: probes must be 1, 2, 3, ..."""
    scalar, vector = _twin_tables(expected=4)
    keys = _colliding_keys(scalar.capacity, 6)
    values = [100 + i for i in range(len(keys))]
    out, works = _compare_batch(scalar, vector, keys, values)
    assert out == values
    assert works == list(range(1, len(keys) + 1))


def test_duplicate_keys_in_batch_first_wins():
    """Same key many times in one batch: the first value is resident."""
    scalar, vector = _twin_tables(expected=4)
    keys = [(9, 9)] * 5 + [(3, 4)] * 3
    values = [10, 11, 12, 13, 14, 20, 21, 22]
    out, _ = _compare_batch(scalar, vector, keys, values)
    assert out == [10, 10, 10, 10, 10, 20, 20, 20]


def test_eviction_wraparound_near_full():
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


def test_growth_mid_batch():
    """One batch large enough to trigger several doublings."""
    scalar, vector = _twin_tables(expected=4)
    rng = random.Random(7)
    keys = [(rng.randrange(10_000), rng.randrange(10_000)) for _ in range(600)]
    values = list(range(len(keys)))
    out, _ = _compare_batch(scalar, vector, keys, values)
    assert scalar.capacity > 16
    assert _compare_batch(scalar, vector, keys, values)[0] == out


def test_empty_batches():
    scalar, vector = _twin_tables(expected=4)
    assert _compare_batch(scalar, vector, [], []) == ([], [])


def test_scalar_cutoff_boundary():
    """Get-or-create batches just below, at and above the gate take
    different sides and match the per-item loop; raw inserts of the
    same sizes match it too."""
    cutoff = hashtable._SCALAR_CUTOFF
    for n in (cutoff - 1, cutoff, cutoff + 1):
        rng = random.Random(n)
        pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(n)]
        _goc_differential(100, 4, pairs[:40], [pairs, pairs[::-1]])
        scalar, vector = _twin_tables(expected=4)
        values = list(range(n))
        out, _ = _compare_batch(scalar, vector, pairs, values)
        assert _compare_batch(scalar, vector, pairs, values)[0] == out


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
    """Random insert-batch sequences, at the default gate and at 0:
    outputs, layout, counters."""
    rng = random.Random(seed)
    expected = rng.choice([4, 64, 1024])
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

    def run(table, insert, gates):
        observe.enable()
        try:
            with forced_gates(gates):
                got = [insert(keys, values) for keys, values in batches]
        finally:
            _, registry = observe.disable()
        return got, table.dump(), _counters(registry)

    scalar = ReferenceTable(expected=expected)
    want = run(scalar, scalar.insert_batch, None)
    for gates in (None, 0):
        vector = HashTable(expected=expected)
        got = run(
            vector,
            lambda keys, values: _insert_columns(vector, keys, values),
            gates,
        )
        assert got == want, gates


#: The get-or-create sides the per-item loop is the oracle for: literal
#: columns as plain lists and as int64 arrays.
_GOC_SIDES = ("lists", "arrays")


def _goc_run(side, gates, num_pis, expected, seeds, batches):
    """Seed a table and run ``batches`` through one side.

    Nodes are allocated in an Aig over ``num_pis`` PIs, so allocation
    order is the Aig's fanin columns and an unknown literal raises
    ``ValueError`` exactly where the allocator would.  Returns the
    per-batch ``(literals, probes)``, the table dump, the fanin
    columns, the ``hashtable.*`` counters and whether (and after how
    many nodes of that batch) a batch raised.
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

    oracle = side == "oracle"
    table = ReferenceTable(expected=expected) if oracle else HashTable(
        expected=expected
    )
    lits0 = [lit0 for lit0, _ in seeds]
    lits1 = [lit1 for _, lit1 in seeds]
    variables = list(range(500, 500 + len(seeds)))
    outs = []
    raised = None
    observe.enable()
    try:
        with forced_gates(gates):
            if oracle:
                outs.append(
                    [
                        table.seed(lit0, lit1, var)
                        for lit0, lit1, var in zip(lits0, lits1, variables)
                    ]
                )
            else:
                outs.append(
                    table.seed_batch(lits0, lits1, variables).tolist()
                )
            for pairs in batches:
                before = aig.num_vars
                try:
                    if oracle:
                        items = [
                            table.get_or_create(lit0, lit1, alloc)
                            for lit0, lit1 in pairs
                        ]
                        got = (
                            [literal for literal, _ in items],
                            [probes for _, probes in items],
                        )
                    else:
                        col0 = [lit0 for lit0, _ in pairs]
                        col1 = [lit1 for _, lit1 in pairs]
                        if side == "arrays":
                            col0 = np.array(col0, dtype=np.int64)
                            col1 = np.array(col1, dtype=np.int64)
                        lits, probes = table.get_or_create(
                            col0, col1, alloc_batch
                        )
                        got = (lits.tolist(), probes.tolist())
                except ValueError:
                    raised = aig.num_vars - before
                    break
                outs.append(got)
    finally:
        _, registry = observe.disable()
    fanins = (aig._f0c.tolist(), aig._f1c.tolist())
    if raised is not None:
        return outs, None, fanins, None, raised
    return outs, table.dump(), fanins, _counters(registry), None


def _goc_differential(num_pis, expected, seeds, batches):
    """Every side, at the default gate and with the gate forced to 0,
    against the per-item loop: literals, probes, slot layout,
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
    """Seed and get-or-create batches against the per-item loop."""
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
    """Crafted and generated batches through every side: growth after
    sentinels are placed, create-then-hit, each fold rule and an
    unknown literal (which raises before any node is created)."""
    _goc_differential(21, expected, seeds, batches)


# ----------------------------------------------------------------------
# A failed get-or-create batch leaves no sentinel behind
# ----------------------------------------------------------------------


def _session(num_pis: int, expected: int = 64) -> InsertionSession:
    aig = Aig()
    for _ in range(num_pis):
        aig.add_pi()
    return InsertionSession(aig, expected=expected)


def _round(session: InsertionSession, pairs):
    """One insertion round over a pair list, results as lists."""
    lits, probes = session.insert_round(
        [lit0 for lit0, _ in pairs], [lit1 for _, lit1 in pairs]
    )
    return lits.tolist(), probes.tolist()


def _no_alloc(key0, key1):
    raise AssertionError(f"unexpected miss: {key0}, {key1}")


def _assert_table_matches_graph(session: InsertionSession) -> None:
    """Every resident is a node of the graph under its own key, and the
    table finds it: no sentinel, no lost probe chain, no stale size."""
    table = session.table
    entries = table.dump()
    assert table.size == len(entries)
    for key0, key1, var in entries:
        assert 0 < var < session.aig.num_vars
        assert session.aig.fanins(var) == (key0, key1)
        found, _ = table.get_or_create([key0], [key1], _no_alloc)
        assert found.tolist() == [var << 1]


@pytest.mark.parametrize("gates", [None, 0])
def test_failed_batch_leaves_no_sentinel(gates):
    """The unknown literal raises before any node is created; the
    batch's other miss must not stay behind as a negative literal."""
    session = _session(4)
    with forced_gates(gates):
        with pytest.raises(ValueError):
            _round(session, [(2, 4), (6, 90)])
        assert session.aig.num_vars == 5
        assert session.table.dump() == []
        _assert_table_matches_graph(session)
        # As on a table that never saw the failed batch.
        assert _round(session, [(2, 4)]) == ([10], [2])
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
        _round(failed, first)
        _round(clean, first)
        before = failed.aig.num_vars
        with pytest.raises(ValueError):
            _round(failed, valid + [(6, 900)])
        if gates is None:
            # One fused loop: validation precedes every allocation.
            assert failed.aig.num_vars == before
        _assert_table_matches_graph(failed)
        got, _ = _round(failed, valid)
        want, _ = _round(clean, valid)
    assert got == want
    _assert_table_matches_graph(failed)


# ----------------------------------------------------------------------
# One entry: every get-or-create batch is sanitized and counted once
# ----------------------------------------------------------------------


def _traced_table_calls(monkeypatch, run):
    """Run ``run()`` while recording the items of every table call;
    returns ``{op: [items per call]}``."""
    calls = {"get_or_create": [], "seed": []}
    get_or_create = HashTable.get_or_create
    seed_batch = HashTable.seed_batch

    def traced_goc(self, lits0, lits1, alloc):
        calls["get_or_create"].append(len(lits0))
        return get_or_create(self, lits0, lits1, alloc)

    def traced_seed(self, lits0, lits1, variables):
        calls["seed"].append(len(lits0))
        return seed_batch(self, lits0, lits1, variables)

    monkeypatch.setattr(HashTable, "get_or_create", traced_goc)
    monkeypatch.setattr(HashTable, "seed_batch", traced_seed)
    run()
    return calls


@pytest.mark.parametrize("gates", [None, 0, math.inf])
def test_sanitizer_sees_every_table_batch(monkeypatch, gates):
    """Under the sanitizer, ``table_items`` is every item handed to
    get-or-create and seeding: ``b``'s first insertion pass of each
    level, its deep-subtree rounds and ``rf``'s wave commit included,
    on either side of the gate."""
    san = Sanitizer(on_conflict="record")
    aig = build_random_aig(3, num_pis=10, num_ands=400)

    def run():
        sanitizer.set_sanitizer(san)
        try:
            with forced_gates(gates):
                run_script(aig.clone(), "b; rf; b", engine="gpu")
        finally:
            sanitizer.set_sanitizer(None)

    calls = _traced_table_calls(monkeypatch, run)
    assert calls["get_or_create"] and calls["seed"]
    summary = san.summary()
    assert summary["table_batches"] == sum(map(len, calls.values()))
    assert summary["table_items"] == sum(map(sum, calls.values()))


@pytest.mark.parametrize("gates", [None, 0, math.inf])
def test_path_counter_counts_each_call_once(monkeypatch, gates):
    """``path.hashtable.get_or_create.scalar|vector`` add up to the
    number of get-or-create calls, and the side matches each call's
    size against the gate."""
    aig = build_random_aig(5, num_pis=10, num_ands=400)
    paths = {}

    def run():
        observe.enable()
        try:
            with forced_gates(gates):
                run_script(aig.clone(), "b; rf; b", engine="gpu")
        finally:
            _, registry = observe.disable()
        for key, value in registry.snapshot()["counters"].items():
            if key.startswith("path.hashtable."):
                paths[key] = value

    calls = _traced_table_calls(monkeypatch, run)["get_or_create"]
    cutoff = hashtable._SCALAR_CUTOFF if gates is None else gates
    below = sum(1 for items in calls if items < cutoff)
    assert calls
    assert sum(paths.values()) == len(calls)
    assert paths.get("path.hashtable.get_or_create.scalar", 0) == below
    assert paths.get("path.hashtable.get_or_create.vector", 0) == (
        len(calls) - below
    )
