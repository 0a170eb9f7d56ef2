"""Differential tests for the bulk-construction layer.

Every bulk path — the vectorized tuple hash, ``FlatStrash``
``insert_bulk`` / ``build_bulk`` / ``_probe_bulk``,
``Aig.add_and_batch``, the ``benchgen.double`` fast path and the bulk
``compact`` — carries the same contract: **bit-identical results to
its scalar twin**, differing in wall clock only
(docs/ARCHITECTURE.md, "Bulk construction").  These tests enforce the
contract differentially: run both paths on the same input, compare
everything observable (result literals, dumps, version counters,
strash contents), with hypothesis driving the batch-semantics corner
cases (folding, ``x & x`` / ``x & !x``, duplicate keys inside a
batch, dead-node rebinds) and explicit cases covering the fallback
gates.
"""

from __future__ import annotations

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import aig as aig_mod
from repro.aig import store
from repro.aig.aig import Aig
from repro.aig.io_aiger import dump_aag
from repro.aig.store import FlatStrash, _hash_pairs
from repro.benchgen.control import random_control
from tests.conftest import build_random_aig

# ``repro.benchgen.__init__`` re-exports the ``enlarge`` *function*
# under the submodule's name; reach the module for its internals.
enlarge_mod = importlib.import_module("repro.benchgen.enlarge")

# ----------------------------------------------------------------------
# _hash_pairs: exact replica of hash((k0, k1))
# ----------------------------------------------------------------------


def test_hash_pairs_matches_python_tuple_hash():
    import numpy as np

    modulus = store._PYHASH_MODULUS
    rng = random.Random(11)
    pairs = [
        (rng.randrange(0, 1 << 40), rng.randrange(0, 1 << 40))
        for _ in range(2000)
    ]
    # Edge lanes: zero, consts, the int-hash modulus boundary.
    pairs += [
        (0, 0), (0, 1), (2, 4),
        (modulus - 1, modulus), (modulus, modulus + 1),
        (modulus + 1, 2 * modulus), (1 << 62, (1 << 62) + 2),
    ]
    key0 = np.array([p[0] for p in pairs], dtype=np.int64)
    key1 = np.array([p[1] for p in pairs], dtype=np.int64)
    hashed = _hash_pairs(key0, key1)
    mask = (1 << 64) - 1
    for index, pair in enumerate(pairs):
        assert int(hashed[index]) == (hash(pair) & mask)


# ----------------------------------------------------------------------
# FlatStrash bulk protocol
# ----------------------------------------------------------------------


def _scalar_twin(keys, values) -> FlatStrash:
    table = FlatStrash()
    for key, value in zip(keys, values):
        table[key] = value
    return table


def test_insert_bulk_matches_scalar_inserts():
    import numpy as np

    rng = random.Random(5)
    keys = list({
        (rng.randrange(2, 5000), rng.randrange(2, 5000))
        for _ in range(3000)
    })
    values = list(range(1, len(keys) + 1))
    scalar = _scalar_twin(keys, values)
    bulk = FlatStrash()
    bulk.insert_bulk(
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array(values, dtype=np.int64),
    )
    assert len(bulk) == len(scalar) == len(keys)
    for key, value in zip(keys, values):
        assert bulk.get(key) == scalar.get(key) == value
    assert bulk.get((1, 1)) is None
    # The scalar probe and the bulk probe agree on every key.
    slots, found = bulk._probe_bulk(
        np.array([k[0] for k in keys] + [1], dtype=np.int64),
        np.array([k[1] for k in keys] + [1], dtype=np.int64),
    )
    assert found.tolist() == values + [-1]
    assert int(slots[-1]) == -1


def test_insert_bulk_through_tombstones():
    import numpy as np

    table = FlatStrash()
    keys = [(2 * k, 2 * k + 2) for k in range(1, 400)]
    for value, key in enumerate(keys, start=1):
        table[key] = value
    for key in keys[::2]:
        del table[key]
    fresh = [(3, 2 * k + 1) for k in range(1, 200)]
    table.insert_bulk(
        np.array([k[0] for k in fresh], dtype=np.int64),
        np.array([k[1] for k in fresh], dtype=np.int64),
        np.arange(1, len(fresh) + 1, dtype=np.int64),
    )
    for value, key in enumerate(fresh, start=1):
        assert table.get(key) == value
    for value, key in enumerate(keys, start=1):
        expected = None if value % 2 == 1 else value
        assert table.get(key) == expected


def test_insert_bulk_scalar_fallback_below_gate(monkeypatch):
    keys = [(k, k + 1) for k in range(2, 300)]
    tables = []
    for gate in (store._BULK_MIN, 10**9):
        monkeypatch.setattr(store, "_BULK_MIN", gate)
        table = FlatStrash()
        table.insert_bulk(
            [k[0] for k in keys],
            [k[1] for k in keys],
            list(range(1, len(keys) + 1)),
        )
        for value, key in enumerate(keys, start=1):
            assert table.get(key) == value
        tables.append(table)
    assert len(tables[0]) == len(tables[1]) == len(keys)


def test_build_bulk_presized_no_rehash():
    import numpy as np

    count = 5000
    key0 = np.arange(2, 2 + count, dtype=np.int64)
    key1 = key0 + 100000
    table = FlatStrash.build_bulk(
        key0, key1, np.arange(1, count + 1, dtype=np.int64)
    )
    assert len(table) == count
    assert table.rehashes == 0
    assert 0.0 < table.load_factor() <= 0.25
    stats = table.stats()
    assert stats["entries"] == count
    assert stats["rehashes"] == 0
    assert table.get((2, 100002)) == 1


def test_rehash_counter_counts_occupancy_rebuilds():
    table = FlatStrash()
    for k in range(1, 200):
        table[(2 * k, 2 * k + 2)] = k
    assert table.rehashes > 0  # geometric growth from capacity 16
    assert table.copy().rehashes == table.rehashes
    presized = FlatStrash()
    presized.reserve(500)
    assert presized.rehashes == 0  # pre-sizing is not a rehash
    for k in range(1, 200):
        presized[(2 * k, 2 * k + 2)] = k
    assert presized.rehashes == 0


# ----------------------------------------------------------------------
# Aig.add_and_batch: hypothesis differential parity
# ----------------------------------------------------------------------


def _batch_base(kill_tail: int = 0) -> Aig:
    aig = build_random_aig(13, num_pis=6, num_ands=60)
    for var in list(aig.and_vars())[-kill_tail:] if kill_tail else []:
        aig.mark_dead(var)
    return aig


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    count=st.integers(min_value=1, max_value=150),
    kill_tail=st.integers(min_value=0, max_value=8),
)
def test_add_and_batch_matches_scalar_loop(seed, count, kill_tail):
    # MonkeyPatch.context over the fixture: hypothesis calls the test
    # body many times per fixture setup.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aig_mod, "_BATCH_CUTOFF", 0)
        _check_batch_parity(seed, count, kill_tail)


def _check_batch_parity(seed, count, kill_tail):
    scalar = _batch_base(kill_tail)
    batch = _batch_base(kill_tail)
    rng = random.Random(seed)
    num = scalar.num_vars
    lits0, lits1 = [], []
    for _ in range(count):
        choice = rng.random()
        if choice < 0.15:  # force folds: const fanins
            lits0.append(rng.randint(0, 1))
        else:
            lits0.append(
                (rng.randrange(0, num) << 1) | rng.randint(0, 1)
            )
        if choice < 0.3 and lits0[-1] >= 2:
            # x & x and x & !x identities, plus duplicate keys.
            lits1.append(lits0[-1] ^ rng.randint(0, 1))
        else:
            lits1.append(
                (rng.randrange(0, num) << 1) | rng.randint(0, 1)
            )
    if rng.random() < 0.5 and len(lits0) > 2:
        # Duplicate whole pairs inside the batch.
        lits0.extend(lits0[:2])
        lits1.extend(lits1[:2])
    expected = [scalar.add_and(a, b) for a, b in zip(lits0, lits1)]
    got = batch.add_and_batch(lits0, lits1)
    assert [int(lit) for lit in got] == expected
    assert batch.num_vars == scalar.num_vars
    assert batch.num_ands == scalar.num_ands
    assert batch._version == scalar._version
    assert batch._live_ands == scalar._live_ands
    assert dump_aag(batch) == dump_aag(scalar)


def test_add_and_batch_scalar_fallback_below_gate(monkeypatch):
    monkeypatch.setattr(aig_mod, "_BATCH_CUTOFF", 10**9)
    aig = build_random_aig(17, num_ands=40)
    reference = build_random_aig(17, num_ands=40)
    pairs = [(2, 4), (2, 4), (6, 9), (0, 8), (3, 8), (8, 8), (8, 9)]
    got = aig.add_and_batch(
        [p[0] for p in pairs], [p[1] for p in pairs]
    )
    expected = [
        reference.add_and(a, b) for a, b in pairs
    ]
    assert isinstance(got, list)
    assert got == expected
    assert dump_aag(aig) == dump_aag(reference)


def test_add_and_batch_validates_up_front(monkeypatch):
    # Up-front validation is a vector-path property (the scalar
    # fallback raises mid-loop, like a hand-written loop would).
    monkeypatch.setattr(aig_mod, "_BATCH_CUTOFF", 0)
    aig = build_random_aig(3, num_ands=30)
    before = aig.num_vars
    bad_lit = (aig.num_vars + 7) << 1
    with pytest.raises(ValueError, match="unknown variable"):
        aig.add_and_batch([2, bad_lit], [4, 6])
    with pytest.raises(ValueError, match="differ in length"):
        aig.add_and_batch([2, 4], [6])
    assert aig.num_vars == before


# ----------------------------------------------------------------------
# enlarge fast path: goldens-style dump identity vs the loop
# ----------------------------------------------------------------------


def test_double_fast_path_dumps_bit_identically(monkeypatch):
    monkeypatch.setattr(enlarge_mod, "_BULK_MIN_ANDS", 1)
    source = random_control(24, 4, 80, seed=3, name="fastpath")
    bulk = enlarge_mod._double_bulk(source)
    loop = enlarge_mod._double_loop(source)
    assert bulk is not None, "generator output must pass the gate"
    assert dump_aag(bulk) == dump_aag(loop)
    assert bulk.num_ands == loop.num_ands
    assert bulk._version == loop._version
    assert bulk._po_version == loop._po_version
    assert len(bulk._strash) == len(loop._strash)
    # And through the public entry point, twice enlarged.
    twice_bulk = enlarge_mod.enlarge(source, 2)
    monkeypatch.setattr(enlarge_mod, "_BULK_MIN_ANDS", 10**9)
    twice_loop = enlarge_mod.enlarge(source, 2)
    assert dump_aag(twice_bulk) == dump_aag(twice_loop)


def test_double_fast_path_gate_rejects_foldable_graphs(monkeypatch):
    monkeypatch.setattr(enlarge_mod, "_BULK_MIN_ANDS", 1)
    dead = random_control(8, 3, 20, seed=4)
    dead.mark_dead(next(iter(dead.and_vars())))
    assert enlarge_mod._double_bulk(dead) is None

    dupes = Aig("dupes")
    a = dupes.add_pi()
    b = dupes.add_pi()
    dupes.add_po(dupes.add_raw_and(a, b))
    dupes.add_po(dupes.add_raw_and(a, b))  # duplicate strash key
    assert enlarge_mod._double_bulk(dupes) is None

    shared = Aig("shared")
    a = shared.add_pi()
    shared.add_po(shared.add_raw_and(a, a))  # x & x
    assert enlarge_mod._double_bulk(shared) is None
    # Every rejected graph still doubles correctly via the loop.
    for aig in (dead, dupes, shared):
        doubled = enlarge_mod.double(aig)
        assert doubled.num_pis == 2 * aig.num_pis
        assert doubled.num_pos == 2 * aig.num_pos


# ----------------------------------------------------------------------
# Bulk compact: parity with the scalar rebuild
# ----------------------------------------------------------------------


def _compact_case(seed: int, kill: int) -> Aig:
    aig = build_random_aig(seed, num_pis=8, num_ands=90)
    victims = list(aig.and_vars())
    rng = random.Random(seed + 1)
    for var in rng.sample(victims, min(kill, len(victims))):
        aig.mark_dead(var)
    return aig


@pytest.mark.parametrize("seed,kill", [(31, 0), (33, 7), (35, 25)])
def test_compact_bulk_matches_scalar(seed, kill, monkeypatch):
    source = _compact_case(seed, kill)
    monkeypatch.setattr(aig_mod, "_BULK_COMPACT_MIN", 10**9)
    scalar_new, scalar_map = source.compact()
    monkeypatch.setattr(aig_mod, "_BULK_COMPACT_MIN", 1)
    bulk_new, bulk_map = source.compact()
    assert dump_aag(bulk_new) == dump_aag(scalar_new)
    assert bulk_map == scalar_map
    assert bulk_new._version == scalar_new._version
    assert bulk_new._live_ands == scalar_new._live_ands
    assert bulk_new._po_version == scalar_new._po_version
    assert len(bulk_new._strash) == len(scalar_new._strash)


def test_compact_bulk_falls_back_on_strash_dirty_graphs(monkeypatch):
    monkeypatch.setattr(aig_mod, "_BULK_COMPACT_MIN", 1)
    # Duplicate keys (raw ANDs) force the scalar rebuild, where the
    # second node strash-hits onto the first.
    aig = Aig("raw")
    a = aig.add_pi()
    b = aig.add_pi()
    aig.add_po(aig.add_raw_and(a, b))
    aig.add_po(aig.add_raw_and(a, b))
    compacted, _ = aig.compact()
    assert compacted.num_ands == 1
    # Constant fanins fold away in the rebuild.
    folding = Aig("folds")
    a = folding.add_pi()
    folding.add_po(folding.add_raw_and(a, 1))
    compacted, _ = folding.compact()
    assert compacted.num_ands == 0
    assert compacted.pos == [a]
    # A resolve map always takes the scalar path (bulk handles none).
    rewired = build_random_aig(37, num_ands=50)
    last = list(rewired.and_vars())[-1]
    resolved, var_map = rewired.compact(resolve={last: 2})
    assert last not in var_map or var_map[last] == var_map.get(1, 2)


def test_compact_scalar_rebuild_below_gate(monkeypatch):
    aig = build_random_aig(39, num_ands=60)
    monkeypatch.setattr(aig_mod, "_BULK_COMPACT_MIN", 1)
    reference = dump_aag(aig)  # dump_aag compacts internally
    monkeypatch.setattr(aig_mod, "_BULK_COMPACT_MIN", 10**9)
    assert aig._compact_bulk() is None
    assert dump_aag(aig) == reference
