"""Differential tests for the bulk-construction layer.

Every bulk path — the vectorized tuple hash, ``FlatStrash.build_bulk``
and the bulk re-placement of an occupancy rebuild, the
``benchgen.double`` fast path and the bulk ``compact`` — carries the
same contract: **bit-identical results to a scalar reference**,
differing in wall clock only (docs/ARCHITECTURE.md, "Bulk
construction").  The bulk paths run at every size, so these tests
compare them with per-key / per-node references from empty inputs up:
run both on the same input and compare everything observable (dumps,
variable maps, version counters, strash contents).  Where a bulk
path has a precondition (``double`` and ``compact`` need fold-free,
strash-clean graphs), the cases that fail it are checked to fall back.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from repro import observe
from repro.aig import store
from repro.aig.aig import Aig, fold_free, resolve_aliases
from repro.aig.io_aiger import dump_aag
from repro.aig.literals import lit_pair_key
from repro.aig.store import FlatStrash, _hash_pairs
from repro.benchgen.control import random_control
from tests.conftest import build_random_aig
from tests.dedup_reference import reference_compact

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


def _build_bulk(keys, values) -> FlatStrash:
    import numpy as np

    return FlatStrash.build_bulk(
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array(values, dtype=np.int64),
    )


def _assert_same_contents(table, reference, keys, values) -> None:
    assert len(table) == len(reference) == len(keys)
    for key, value in zip(keys, values):
        assert table.get(key) == reference.get(key) == value
    assert table.get((1, 1)) is None


def _random_keys(rng, count):
    keys = set()
    while len(keys) < count:
        keys.add((rng.randrange(2, 5000), rng.randrange(2, 5000)))
    return list(keys)


def test_insert_bulk_matches_scalar_inserts():
    """A bulk-built table answers like a per-key ``table[k] = v`` loop."""
    rng = random.Random(5)
    keys = _random_keys(rng, 3000)
    values = list(range(1, len(keys) + 1))
    bulk = _build_bulk(keys, values)
    _assert_same_contents(bulk, _scalar_twin(keys, values), keys, values)


def test_insert_bulk_through_tombstones():
    """Occupancy rebuilds re-place live keys in bulk, dropping tombstones.

    Covers rebuilds with many, few and no surviving old keys.
    """
    rng = random.Random(9)
    for live_kept in (200, 3, 0):
        table = FlatStrash()
        reference: dict = {}
        keys = [(2 * k, 2 * k + 2) for k in range(1, 400)]
        for value, key in enumerate(keys, start=1):
            table[key] = value
            reference[key] = value
        doomed = keys[live_kept:]
        for key in rng.sample(doomed, len(doomed)):
            del table[key]
            del reference[key]
        rehashes = table.rehashes
        fresh = [(3, 2 * k + 1) for k in range(1, 700)]
        for value, key in enumerate(fresh, start=1):
            table[key] = value
            reference[key] = value
        assert table.rehashes > rehashes
        assert len(table) == len(reference)
        assert 2 * table.stats()["used"] <= table.stats()["slots"]
        for key in keys + fresh:
            assert table.get(key) == reference.get(key)


def test_insert_bulk_scalar_fallback_below_gate():
    """``build_bulk`` equals the per-key loop on tiny and small key sets."""
    rng = random.Random(13)
    for count in (0, 1, 2, 63, 64, 65, rng.randrange(3, 300)):
        keys = _random_keys(rng, count)
        values = [rng.randrange(1, 10**6) for _ in keys]
        table = _build_bulk(keys, values)
        _assert_same_contents(
            table, _scalar_twin(keys, values), keys, values
        )
        assert table.rehashes == 0
        assert table.stats()["used"] == count


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
# enlarge fast path: goldens-style dump identity vs the loop
# ----------------------------------------------------------------------


def _assert_same_double(bulk: Aig, loop: Aig) -> None:
    assert dump_aag(bulk) == dump_aag(loop)
    assert bulk.num_ands == loop.num_ands
    assert bulk._version == loop._version
    assert bulk._po_version == loop._po_version
    assert len(bulk._strash) == len(loop._strash)
    assert bulk.pis == loop.pis
    assert bulk.pos == loop.pos
    for index in range(loop.num_pis):
        assert bulk.pi_name(index) == loop.pi_name(index)
    for index in range(loop.num_pos):
        assert bulk.po_name(index) == loop.po_name(index)


def test_double_fast_path_dumps_bit_identically():
    source = random_control(24, 4, 80, seed=3, name="fastpath")
    bulk = enlarge_mod._double_bulk(source)
    loop = enlarge_mod._double_loop(source)
    assert bulk is not None, "generator output must pass the gate"
    _assert_same_double(bulk, loop)
    # And through the public entry point, twice enlarged.
    twice_bulk = enlarge_mod.enlarge(source, 2)
    twice_loop = enlarge_mod._double_loop(loop)
    twice_loop.name = twice_bulk.name  # enlarge renames to "<name>_2xd"
    assert dump_aag(twice_bulk) == dump_aag(twice_loop)


@pytest.mark.parametrize(
    "layers,width", [(1, 1), (1, 3), (2, 10), (5, 60)]
)
def test_double_bulk_matches_loop_across_sizes(layers, width):
    source = random_control(6, layers, width, seed=layers + width)
    bulk = enlarge_mod._double_bulk(source)
    assert bulk is not None
    _assert_same_double(bulk, enlarge_mod._double_loop(source))


def test_double_of_and_free_graphs_matches_loop():
    empty = Aig("empty")
    pi_only = Aig("pi_only")
    pi_only.add_po(pi_only.add_pi("a"), "a_out")
    pi_only.add_po(pi_only.add_pi() ^ 1)
    const_po = Aig("const_po")
    const_po.add_pi("x")
    const_po.add_po(0, "zero")
    const_po.add_po(1)
    for aig in (empty, pi_only, const_po):
        bulk = enlarge_mod._double_bulk(aig)
        assert bulk is not None
        _assert_same_double(bulk, enlarge_mod._double_loop(aig))
        assert dump_aag(enlarge_mod.double(aig)) == dump_aag(bulk)


def test_double_fast_path_gate_rejects_foldable_graphs():
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

    folding = Aig("folding")
    a = folding.add_pi()
    folding.add_po(folding.add_raw_and(a, 1))  # constant fanin
    assert enlarge_mod._double_bulk(folding) is None

    # Every rejected graph still doubles correctly via the loop.
    for aig in (dead, dupes, shared, folding):
        doubled = enlarge_mod.double(aig)
        assert doubled.num_pis == 2 * aig.num_pis
        assert doubled.num_pos == 2 * aig.num_pos


@pytest.mark.parametrize(
    "pairs, expected",
    [
        ([], True),
        ([(2, 4), (4, 7), (3, 6)], True),
        ([(2, 4), (4, 2)], False),  # same key, fanins swapped
        ([(1, 4)], False),  # constant fanin
        ([(4, 4)], False),  # x & x
        ([(4, 5)], False),  # x & !x
        ([(2, 1 << 31)], False),  # too wide to pack: not proven
    ],
)
def test_fold_free_cases(pairs, expected):
    import numpy as np

    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert fold_free(arr[:, 0].copy(), arr[:, 1].copy()) is expected


# ----------------------------------------------------------------------
# Bulk compact: parity with the scalar rebuild
# ----------------------------------------------------------------------


def _scalar_compact(aig: Aig, resolve=None):
    """``aig.compact()`` through the ``add_and`` rebuild (bulk refused)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Aig, "_compact_bulk", lambda self, *args: None)
        return aig.compact(resolve=resolve)


def _bulk(aig: Aig, final=None):
    """The column build over the graph's walk, or ``None``."""
    return aig._compact_bulk(aig.post_order(final), final)


def _assert_same_compact(bulk_new, scalar_new) -> None:
    assert dump_aag(bulk_new) == dump_aag(scalar_new)
    assert bulk_new._version == scalar_new._version
    assert bulk_new._live_ands == scalar_new._live_ands
    assert bulk_new._po_version == scalar_new._po_version
    assert len(bulk_new._strash) == len(scalar_new._strash)
    for var in scalar_new.and_vars():
        assert bulk_new._strash.get(scalar_new.fanins(var)) == var


def _compact_case(seed: int, kill: int) -> Aig:
    aig = build_random_aig(seed, num_pis=8, num_ands=90)
    victims = list(aig.and_vars())
    rng = random.Random(seed + 1)
    for var in rng.sample(victims, min(kill, len(victims))):
        aig.mark_dead(var)
    return aig


@pytest.mark.parametrize("seed,kill", [(31, 0), (33, 7), (35, 25)])
def test_compact_bulk_matches_scalar(seed, kill):
    source = _compact_case(seed, kill)
    bulk = _bulk(source)
    assert bulk is not None
    _assert_same_compact(bulk, _scalar_compact(source))
    _assert_same_compact(source.compact(), _scalar_compact(source))


def test_compact_bulk_falls_back_on_strash_dirty_graphs():
    # Duplicate keys (raw ANDs) force the scalar rebuild, where the
    # second node strash-hits onto the first.
    aig = Aig("raw")
    a = aig.add_pi()
    b = aig.add_pi()
    aig.add_po(aig.add_raw_and(a, b))
    aig.add_po(aig.add_raw_and(a, b))
    assert _bulk(aig) is None
    compacted = aig.compact()
    assert compacted.num_ands == 1
    # Constant fanins fold away in the rebuild.
    folding = Aig("folds")
    a = folding.add_pi()
    folding.add_po(folding.add_raw_and(a, 1))
    assert _bulk(folding) is None
    compacted = folding.compact()
    assert compacted.num_ands == 0
    assert compacted.pos == [a]
    # A resolve map onto a PI: the bulk path or its fallback, either
    # way the redirected node is not rebuilt and its fanouts read the
    # PI instead.
    rewired = build_random_aig(37, num_ands=50)
    last = list(rewired.and_vars())[-1]
    resolved = rewired.compact(resolve={last: 2})
    _assert_same_compact(resolved, reference_compact(rewired, {last: 2}))
    assert resolved.num_ands < rewired.compact().num_ands


def test_compact_scalar_rebuild_below_gate():
    """Bulk compact equals the scalar rebuild from 0 ANDs up.

    Includes the AND-free graphs (empty, PI-only, constant POs) and
    sizes from one AND to a few thousand.
    """
    empty = Aig("empty")
    pi_only = Aig("pi_only")
    pi_only.add_po(pi_only.add_pi("a"), "a_out")
    pi_only.add_pi()
    const_po = Aig("const_po")
    const_po.add_pi()
    const_po.add_po(1, "one")
    cases = [empty, pi_only, const_po]
    cases += [
        build_random_aig(39 + size, num_pis=4, num_ands=size)
        for size in (1, 2, 5, 60, 700)
    ]
    cases.append(build_random_aig(41, num_pis=16, num_ands=2100))
    for aig in cases:
        reference = _scalar_compact(aig)
        bulk = _bulk(aig)
        assert bulk is not None
        _assert_same_compact(bulk, reference)
        _assert_same_compact(aig.compact(), reference)


# ----------------------------------------------------------------------
# Bulk compact through a resolve map
# ----------------------------------------------------------------------


def _resolve_case(seed: int, mode: str) -> tuple[Aig, dict[int, int]]:
    """A random graph plus an acyclic alias map of the given flavour.

    ``forward`` aliases redirect to fresh raw rows over two PIs, each
    pair used once (a cone replacement: the bulk path applies);
    ``backward`` ones to lower literals, constants included (folds and
    duplicate keys make the bulk path refuse); ``mixed`` draws both.
    """
    rng = random.Random(seed)
    aig = build_random_aig(seed, num_pis=6, num_ands=80)
    pi_lits = [2 * var for var in aig.pis]
    used: set[tuple[int, int]] = set()
    alias: dict[int, int] = {}
    for var in rng.sample(list(aig.and_vars()), 12):
        kind = mode if mode != "mixed" else rng.choice(("forward", "backward"))
        if kind == "backward":
            alias[var] = rng.randrange(0, 2 * var)
            continue
        while True:
            lit0, lit1 = rng.sample(pi_lits, 2)
            lit0 ^= rng.randint(0, 1)
            lit1 ^= rng.randint(0, 1)
            key = (min(lit0, lit1), max(lit0, lit1))
            if key not in used and aig.find_and(lit0, lit1) is None:
                used.add(key)
                break
        alias[var] = aig.add_raw_and(lit0, lit1) ^ rng.randint(0, 1)
    return aig, alias


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", ["forward", "backward", "mixed"])
def test_compact_resolve_bulk_matches_scalar(seed, mode):
    aig, alias = _resolve_case(seed, mode)
    reference = reference_compact(aig, alias)
    _assert_same_compact(_scalar_compact(aig, alias), reference)
    _assert_same_compact(aig.compact(resolve=alias), reference)
    bulk = _bulk(aig, resolve_aliases(alias, aig.num_vars))
    if mode == "forward":
        assert bulk is not None
    if bulk is not None:
        _assert_same_compact(bulk, reference)


def test_compact_resolve_falls_back_on_folds_and_duplicates():
    aig = Aig("fallbacks")
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    ab = aig.add_and(a, b)
    ac = aig.add_and(a, c)
    top = aig.add_and(ab, ac)
    aig.add_po(top)
    aig.add_po(aig.add_and(ac, b))
    for alias in (
        {ac >> 1: 1},  # constant fanin: top folds to ab
        {ac >> 1: ab ^ 1},  # ab & !ab folds to 0
        {ac >> 1: ab},  # top = ab & ab, and ac & b duplicates ab & b
    ):
        assert _bulk(aig, resolve_aliases(alias, aig.num_vars)) is None
        reference = reference_compact(aig, alias)
        _assert_same_compact(aig.compact(resolve=alias), reference)
        _assert_same_compact(_scalar_compact(aig, alias), reference)


def _compact_error(run) -> str:
    with pytest.raises(ValueError) as info:
        run()
    return str(info.value)


def test_compact_resolve_cycles_raise_identical_errors():
    aig = Aig("cycles")
    a, b = aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    z = aig.add_and(a ^ 1, b)
    above = aig.add_and(x, b ^ 1)
    aig.add_po(aig.add_and(above, z))
    for alias, message in (
        ({x >> 1: z, z >> 1: x}, "cycle in resolve map"),
        ({x >> 1: x ^ 1}, "cycle in resolve map"),
        # x redirects to a node that reads x: a cycle through a fanin.
        ({x >> 1: above}, "cycle through variable"),
    ):
        errors = {
            _compact_error(lambda: aig.compact(resolve=alias)),
            _compact_error(lambda: _scalar_compact(aig, alias)),
            _compact_error(lambda: reference_compact(aig, alias)),
        }
        assert len(errors) == 1
        assert message in errors.pop()


def _compact_paths(run) -> tuple[dict[str, int], int]:
    """``path.compact.*`` counters and :meth:`Aig.post_order` calls
    of ``run()``."""
    walks = []
    walk = Aig.post_order

    def counted(self, final=None):
        walks.append(final)
        return walk(self, final)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Aig, "post_order", counted)
        observe.enable()
        try:
            run()
        finally:
            _, registry = observe.disable()
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("path.compact.")
    }
    return counters, len(walks)


def test_compact_walks_once_on_either_path():
    aig = Aig("paths")
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    ab = aig.add_and(a, b)
    ac = aig.add_and(a, c)
    aig.add_po(aig.add_and(ab, ac))
    aig.add_po(aig.add_and(ac, b))
    # Constant fanin, complementary pair, duplicate key: each folds.
    for alias in ({ac >> 1: 1}, {ac >> 1: ab ^ 1}, {ac >> 1: ab}):
        counters, walks = _compact_paths(lambda: aig.compact(resolve=alias))
        assert counters == {"path.compact.fold": 1}
        assert walks == 1
    for resolve in (None, {ac >> 1: c}):
        counters, walks = _compact_paths(
            lambda: aig.compact(resolve=resolve)
        )
        assert counters == {"path.compact.bulk": 1}
        assert walks == 1


def test_gpu_resyn2_on_a_golden_case_compacts_in_bulk():
    from repro.engine import run_script

    path = (
        Path(__file__).parent.parent / "scripts/capture_engine_goldens.py"
    )
    spec = importlib.util.spec_from_file_location(path.stem, path)
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    _, aig = capture.golden_cases()[0]
    counters, _ = _compact_paths(
        lambda: run_script(aig, "resyn2", engine="gpu")
    )
    assert set(counters) == {"path.compact.bulk"}


# ----------------------------------------------------------------------
# Batched kills: Aig.mark_dead_batch / FlatStrash.delete_bulk
# ----------------------------------------------------------------------


def _strash_state(aig: Aig) -> tuple:
    """Every slot of the strash (keys, values, tombstones) and its sizes."""
    table = aig._strash
    return (
        table._key0.tobytes(),
        table._key1.tobytes(),
        table._value.tobytes(),
        table._mask,
        table._size,
        table._used,
    )


def _kill_state(aig: Aig) -> tuple:
    return (
        _strash_state(aig),
        aig._deadc.tolist(),
        aig._version,
        aig._live_ands,
        dump_aag(aig),
    )


def _kill_case(seed: int) -> Aig:
    """A random graph with tombstones already in its strash and raw
    duplicates whose key belongs to another node."""
    aig = build_random_aig(seed, num_pis=8, num_ands=150)
    rng = random.Random(seed)
    ands = list(aig.and_vars())
    for var in rng.sample(ands, 10):
        aig.mark_dead(var)
    for var in rng.sample(ands, 6):
        aig.add_raw_and(*aig.fanins(var))
    return aig


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("share", [0.0, 0.05, 0.4, 1.0])
def test_mark_dead_batch_matches_per_node_loop(seed, share):
    source = _kill_case(seed)
    rng = random.Random(seed * 7)
    everything = list(source.all_and_vars())
    victims = rng.sample(everything, int(share * len(everything)))
    victims += victims[:3]  # repeats and already-dead nodes are no-ops
    loop = source.clone()
    for var in victims:
        loop.mark_dead(var)
    batch = source.clone()
    batch.mark_dead_batch(victims)
    assert _kill_state(batch) == _kill_state(loop)


def test_mark_dead_batch_rejects_non_and_nodes_unchanged():
    aig = _kill_case(44)
    before = _kill_state(aig)
    with pytest.raises(ValueError, match="only AND nodes"):
        aig.mark_dead_batch([next(aig.and_vars()), aig.pis[0]])
    with pytest.raises(IndexError):
        aig.mark_dead_batch([aig.num_vars])
    assert _kill_state(aig) == before


# ----------------------------------------------------------------------
# Single kills: one strash probe
# ----------------------------------------------------------------------


def _two_probe_mark_dead(aig: Aig, var: int) -> None:
    """``Aig.mark_dead`` as a ``get`` probe, then a ``del`` probe."""
    if not aig.is_and(var):
        raise ValueError(f"only AND nodes can be deleted, not var {var}")
    if aig._deadc.view[var]:
        return
    aig._version += 1
    aig._deadc.view[var] = True
    aig._live_ands -= 1
    key = lit_pair_key(*aig.fanins(var))
    if aig._strash.get(key) == var:
        del aig._strash[key]


@pytest.mark.parametrize("seed", [51, 52, 53])
@pytest.mark.parametrize("share", [0.05, 0.5, 0.9])
def test_mark_dead_matches_two_probe_sequence(seed, share):
    """Tombstone-heavy tables, repeats, raw duplicates and dead nodes."""
    source = _kill_case(seed)
    rng = random.Random(seed * 11)
    everything = list(source.all_and_vars())
    victims = rng.sample(everything, int(share * len(everything)))
    victims += rng.sample(victims, len(victims) // 4)  # repeated kills
    single = source.clone()
    double = source.clone()
    for var in victims:
        single.mark_dead(var)
        _two_probe_mark_dead(double, var)
        assert _kill_state(single) == _kill_state(double), var


def test_mark_dead_keeps_the_slot_of_a_different_var():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    kept = aig.add_and(a, b)
    copy = aig.add_raw_and(a, b)  # same key, not in the strash
    aig.add_po(kept)
    aig.add_po(copy)
    before = _strash_state(aig)
    aig.mark_dead(copy >> 1)
    assert _strash_state(aig) == before
    assert aig.find_and(a, b) == kept
    aig.mark_dead(kept >> 1)
    assert aig.find_and(a, b) is None
    assert aig._strash._size == before[4] - 1


def test_delete_entry_matches_get_then_delete():
    rng = random.Random(23)
    keys = _random_keys(rng, 700)
    table = FlatStrash()
    for value, key in enumerate(keys, start=1):
        table[key] = value
    for key in rng.sample(keys, 300):  # tombstones before the deletes
        del table[key]
    reference = table.copy()
    for _ in range(900):
        index = rng.randrange(len(keys))
        value = index + 1 + rng.choice((0, 0, 1))  # some hold another var
        table.delete_entry(*keys[index], value)
        if reference.get(keys[index]) == value:
            del reference[keys[index]]
        assert table._value.tobytes() == reference._value.tobytes()
    assert (table._size, table._used) == (reference._size, reference._used)


def test_delete_bulk_matches_per_key_deletes():
    """Tombstones land on the same slots in any delete order."""
    import numpy as np

    rng = random.Random(17)
    keys = _random_keys(rng, 900)
    table = FlatStrash()
    for value, key in enumerate(keys, start=1):
        table[key] = value
    doomed = rng.sample(range(len(keys)), 500)
    # Half the pairs name a value the key does not hold: kept.
    values = [
        index + 1 if position % 2 else index + 2
        for position, index in enumerate(doomed)
    ]
    reference = table.copy()
    for index, value in zip(reversed(doomed), reversed(values)):
        if reference.get(keys[index]) == value:
            del reference[keys[index]]
    table.delete_bulk(
        np.array([keys[index][0] for index in doomed], dtype=np.int64),
        np.array([keys[index][1] for index in doomed], dtype=np.int64),
        np.array(values, dtype=np.int64),
    )
    assert table._value.tobytes() == reference._value.tobytes()
    assert (table._size, table._used) == (reference._size, reference._used)
    assert len(table) == len(keys) - 250
