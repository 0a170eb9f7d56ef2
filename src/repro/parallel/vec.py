"""NumPy batch kernels for the parallel hash table.

Every kernel here executes one of the already-batched operations of
:mod:`repro.parallel.hashtable` as whole-array NumPy code while
reproducing the scalar per-item loop **bit-identically**: same table
layouts, same per-item probe counts, same allocation order, same
``hashtable.*`` counters.  Below :data:`_SCALAR_CUTOFF` items a scalar
loop runs instead (docs/ARCHITECTURE.md, "Size gates"): the inherited
per-item loop for inserts and seeds, and for get-or-create the fused
loop :func:`goc_small`, which replays the per-item sequence in one
pass over the table.

The interesting kernel is batched hash insertion.  The scalar loop
resolves same-key (and same-slot) conflicts deterministically in batch
order; a naive data-parallel insert would not.  The vectorized version
reproduces the sequential result in two phases:

1. **Key grouping** — duplicate keys inside a batch are folded onto
   their first occurrence.  Because the table never deletes, a later
   same-key item walks exactly the representative's probe path and
   terminates on the representative's slot (as a hit), so its result
   and probe count derive from the representative's without touching
   the table.

2. **Stable placement** — the remaining distinct keys are classified
   once against the pre-batch table.  A resident key is always found
   before any empty slot (linear-probing paths contain no gaps), so
   hits are final immediately and misses are *pure slot contention*:
   every pending item walks to the first slot it may claim, each
   contested slot goes to the lowest batch index (``np.minimum.at``),
   and a claimant displaced by a lower index resumes its walk from the
   slot it lost.  This priority fixpoint is exactly the assignment the
   scalar loop produces by inserting in batch order, and each item's
   probe count is the length of its cumulative walk — also exactly the
   scalar count, because a sequential insert visits every slot between
   its hash slot and its final slot.  The number of rounds is the
   depth of the longest displacement cascade (single digits in
   practice), each touching only the still-unplaced items.

Batched ``get_or_create`` inserts negative sentinels for misses, then
allocates node ids in batch order and patches them over the
sentinels, exactly like the scalar loop.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.parallel import hashtable
from repro.parallel.hashtable import HashTable
from repro.verify import sanitizer

_EMPTY = -1

#: Below this batch size the whole-array set-up cost exceeds the scalar
#: loop; fall back to the per-item path (the fused :func:`goc_small`
#: for get-or-create), which is the same table layout and the same
#: counters either way (pure wall-clock heuristic, never a semantic
#: switch).  Crossover evidence: on the ``rfc-deep`` benchmark workload
#: (seed 1) the serial retry lane makes 526 ``get_or_create_batch``
#: calls (median 2.5 items, max 28) and 196 ``insert_batch`` calls
#: (median 5); against the fused loop, forcing this gate to 0 cost
#: +2.1 to +23.5% ``opt_s`` in five of six paired perfbench runs on a
#: 2-vCPU VM (median +5.2%, one pair -13.3%).
_SCALAR_CUTOFF = 512


def _count(name: str, value: int) -> None:
    """Aggregate counter bump that, like the scalar per-item path,
    never materializes a key for zero events."""
    if value:
        observe.count(name, value)


#: The scalar table's multiplicative hashing constant and 64-bit wrap,
#: as Python ints (:func:`goc_small`) and as a NumPy scalar.
_MIX_INT = hashtable._MIX
_MASK64 = hashtable._MASK64
_MIX = np.uint64(_MIX_INT)
_SHIFT = np.uint64(31)


def hash_keys(key0: np.ndarray, key1: np.ndarray) -> np.ndarray:
    """Vectorized ``hashtable._hash_key`` (uint64 wrap-around)."""
    value = key0.astype(np.uint64) * _MIX + key1.astype(np.uint64)
    value ^= value >> _SHIFT
    return value * _MIX


def group_keys(
    key0: np.ndarray, key1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group a chunk by key; duplicates fold onto their first occurrence.

    Returns ``(rep_pos, reps)``: each item's position into ``reps``
    (its group's representative), and the representative item indices
    themselves.
    ``reps`` is ascending — position within it is batch order, which
    :meth:`VecHashTable._stable_place` uses as the placement priority.
    """
    n = key0.shape[0]
    order = np.lexsort((np.arange(n), key1, key0))
    k0s = key0[order]
    k1s = key1[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (k0s[1:] != k0s[:-1]) | (k1s[1:] != k1s[:-1])
    group_of_sorted = np.cumsum(new_group) - 1
    reps = order[new_group]
    rank = np.empty(reps.shape[0], dtype=np.int64)
    rank[np.argsort(reps, kind="stable")] = np.arange(reps.shape[0])
    rep_pos = np.empty(n, dtype=np.int64)
    rep_pos[order] = rank[group_of_sorted]
    return rep_pos, np.sort(reps)


class VecHashTable(HashTable):
    """NumPy-array twin of :class:`HashTable`.

    Storage is three int64 arrays instead of lists; the inherited
    scalar single-item operations work unchanged on them (callers pass
    Python ints).  Growth, dump and :meth:`insert_batch` are
    overridden with vectorized implementations.
    """

    def __init__(
        self, expected: int = 1024, load_factor: float = 0.5
    ) -> None:
        if not 0.0 < load_factor < 1.0:
            raise ValueError("load factor must be in (0, 1)")
        self._load_factor = load_factor
        capacity = 16
        while capacity * load_factor < max(expected, 1):
            capacity *= 2
        self._alloc_slots(capacity)
        self._size = 0

    def _alloc_slots(self, capacity: int) -> None:
        """Allocate the slot arrays plus their memoryview twins.

        The NumPy arrays serve the vectorized paths; the scalar ones
        (the inherited per-item operations and :func:`goc_small`, used
        below :data:`_SCALAR_CUTOFF` and for growth replays) go through
        ``self._key0``/``self._key1``/``self._value``, which here are
        *memoryviews* of the same buffers — scalar indexing on a
        memoryview speaks plain Python ints at close to list speed,
        where ndarray scalar indexing would box ``np.int64`` on every
        probe.  ``_acidx`` holds, per slot, the batch position of a
        tentative occupant during stable placement (-1 outside it).
        """
        self._akey0 = np.full(capacity, _EMPTY, dtype=np.int64)
        self._akey1 = np.full(capacity, _EMPTY, dtype=np.int64)
        self._avalue = np.full(capacity, _EMPTY, dtype=np.int64)
        self._acidx = np.full(capacity, -1, dtype=np.int64)
        self._key0 = memoryview(self._akey0)
        self._key1 = memoryview(self._akey1)
        self._value = memoryview(self._avalue)

    def dump(self) -> list[tuple[int, int, int]]:
        used = np.flatnonzero(self._avalue != _EMPTY)
        return list(
            zip(
                self._akey0[used].tolist(),
                self._akey1[used].tolist(),
                self._avalue[used].tolist(),
            )
        )

    def _grow(self) -> None:
        if observe.enabled:
            observe.count("hashtable.resizes")
        used = np.flatnonzero(self._avalue != _EMPTY)
        key0 = self._akey0[used]
        key1 = self._akey1[used]
        values = self._avalue[used]
        self._alloc_slots(self._avalue.shape[0] * 2)
        self._size = 0
        n = key0.shape[0]
        if n:
            # Resident keys are unique: place directly, no grouping.
            hit, _, path = self._stable_place(key0, key1, values)
            self._size = n
            if observe.enabled:
                observe.count("hashtable.rehash_probes", int(path.sum()))

    def _drop_sentinels(self, rehashed: bool) -> None:
        """Take a failed get-or-create batch's sentinels back out.

        Sentinels sit in slots that were empty before the batch, so
        clearing them restores the table exactly.  When a growth
        rehashed them among the resident keys (``rehashed``), clearing
        could cut a resident's probe chain, so the residents are
        placed afresh at the current capacity instead.
        """
        held = self._avalue < _EMPTY
        if not rehashed:
            self._akey0[held] = _EMPTY
            self._akey1[held] = _EMPTY
            self._avalue[held] = _EMPTY
            self._size -= int(held.sum())
            return
        used = np.flatnonzero(self._avalue >= 0)
        key0 = self._akey0[used]
        key1 = self._akey1[used]
        values = self._avalue[used]
        self._alloc_slots(self._avalue.shape[0])
        self._stable_place(key0, key1, values)
        self._size = used.shape[0]

    def _room(self) -> int:
        """Inserts guaranteed not to trigger the scalar growth check."""
        return (
            int(self._avalue.shape[0] * self._load_factor) - self._size
        )

    def _stable_place(
        self, key0: np.ndarray, key1: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stable placement of a growth-free chunk of DISTINCT keys.

        Returns ``(hit, slot, path)``.  Misses are committed: their
        keys and ``values`` entries are written at their final slots
        (the caller adjusts ``_size`` and rewrites values when the
        semantics require it).  ``path`` is each item's full walk
        length — the scalar probe count.
        """
        tkey0, tkey1, tvalue = self._akey0, self._akey1, self._avalue
        cidx = self._acidx
        mask = tvalue.shape[0] - 1
        m = key0.shape[0]
        hit = np.zeros(m, dtype=bool)
        slot = np.full(m, -1, dtype=np.int64)
        path = np.ones(m, dtype=np.int64)
        active = np.arange(m)
        cur = (hash_keys(key0, key1) & np.uint64(mask)).astype(np.int64)
        rounds = 0
        while active.size:
            rounds += 1
            # Walk every active item to the first slot it stops on:
            # a key match (final hit), an empty slot, or a tentative
            # occupant with a later batch position (evictable).
            walking = active
            wcur = cur
            while walking.size:
                value = tvalue[wcur]
                empty = value == _EMPTY
                match = (
                    ~empty
                    & (tkey0[wcur] == key0[walking])
                    & (tkey1[wcur] == key1[walking])
                )
                stop = empty | match | (cidx[wcur] > walking)
                if stop.any():
                    stopped = walking[stop]
                    slot[stopped] = wcur[stop]
                    hit[stopped] = match[stop]
                    keep = ~stop
                    walking = walking[keep]
                    wcur = wcur[keep]
                wcur = (wcur + 1) & mask
                path[walking] += 1
            claimants = active[~hit[active]]
            if claimants.size == 0:
                break
            # Each contested slot goes to its lowest batch position.
            cslot = slot[claimants]
            owner = np.full(tvalue.shape[0], m, dtype=np.int64)
            np.minimum.at(owner, cslot, claimants)
            winner = owner[cslot] == claimants
            wslot = cslot[winner]
            widx = claimants[winner]
            evicted = cidx[wslot]
            evicted = evicted[evicted >= 0]
            tkey0[wslot] = key0[widx]
            tkey1[wslot] = key1[widx]
            tvalue[wslot] = values[widx]
            cidx[wslot] = widx
            # Losers re-examine the slot they lost (it stays counted in
            # their path); the displaced resume from the slot they held.
            active = np.concatenate([claimants[~winner], evicted])
            cur = slot[active]
        self._acidx[slot[~hit]] = -1
        if sanitizer.enabled and rounds > 1:
            # Extra placement rounds = slot-level arbitration between
            # batch items (the physical contention the scalar loop
            # resolves implicitly in batch order) — a vec-only
            # diagnostic, not part of the bit-identical contract.
            sanitizer.current().on_evictions(rounds - 1)
        return hit, slot, path

    def insert_batch(self, keys, values):
        n = len(values)
        if n == 0:
            return [], []
        if n < _SCALAR_CUTOFF:
            if observe.enabled:
                observe.count("path.vec.insert_batch.scalar")
            out = []
            works = []
            for (k0, k1), value in zip(keys, values):
                resident, probes = self.insert(int(k0), int(k1), int(value))
                out.append(int(resident))
                works.append(probes)
            return out, works
        if observe.enabled:
            observe.count("path.vec.insert_batch.vector")
        key0, key1 = _as_key_arrays(keys)
        vals = np.asarray(values, dtype=np.int64)
        res = np.empty(n, dtype=np.int64)
        prb = np.empty(n, dtype=np.int64)
        inserted = 0
        start = 0
        while start < n:
            room = self._room()
            if room <= 0:
                self._grow()
                continue
            stop = min(n, start + room)
            ck0 = key0[start:stop]
            ck1 = key1[start:stop]
            cvals = vals[start:stop]
            rep_pos, reps = group_keys(ck0, ck1)
            hit, slot, path = self._stable_place(
                ck0[reps], ck1[reps], cvals[reps]
            )
            inserted += int((~hit).sum())
            self._size += int((~hit).sum())
            # Every group member returns its representative's resident
            # value and walks its representative's exact path.
            res[start:stop] = self._avalue[slot][rep_pos]
            prb[start:stop] = path[rep_pos]
            start = stop
        if observe.enabled:
            _count("hashtable.inserts", inserted)
            _count("hashtable.insert_hits", n - inserted)
            _count("hashtable.probes", int(prb.sum()))
        return res.tolist(), prb.tolist()


def _as_key_arrays(keys) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(keys, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def seed_batch(node_table, lits0, lits1, variables):
    """Vectorized :meth:`NodeHashTable.seed` over parallel lists."""
    if len(variables) < _SCALAR_CUTOFF:
        if observe.enabled:
            observe.count("path.vec.seed_batch.scalar")
        return [
            node_table.seed(int(lit0), int(lit1), int(var))
            for lit0, lit1, var in zip(lits0, lits1, variables)
        ]
    if observe.enabled:
        observe.count("path.vec.seed_batch.vector")
    arr0 = np.asarray(lits0, dtype=np.int64)
    arr1 = np.asarray(lits1, dtype=np.int64)
    keys = np.stack(
        [np.minimum(arr0, arr1), np.maximum(arr0, arr1)], axis=1
    )
    _, probes = node_table._table.insert_batch(keys, list(variables))
    return probes


def get_or_create_batch(node_table, pairs, alloc, alloc_batch=None):
    """Vectorized :meth:`NodeHashTable.get_or_create` over a batch.

    ``alloc`` is invoked in batch order for exactly the items the
    scalar loop would have allocated, so fresh node ids — which feed
    later hash keys — are assigned identically.  ``alloc_batch``, when
    provided, allocates all of a chunk's misses in one call (same
    order, same ids — a pure wall-clock path).  Returns
    ``(literals, probe_works)`` as plain lists.
    """
    n = len(pairs)
    if n == 0:
        return [], []
    if n < _SCALAR_CUTOFF:
        if observe.enabled:
            observe.count("path.vec.get_or_create_batch.scalar")
        return goc_small(node_table, pairs, alloc, alloc_batch)
    if observe.enabled:
        observe.count("path.vec.get_or_create_batch.vector")
    arr = np.asarray(pairs, dtype=np.int64).reshape(n, 2)
    lits, probes = goc_batch_arrays(
        node_table, arr[:, 0], arr[:, 1], alloc, alloc_batch
    )
    return lits.tolist(), probes.tolist()


def goc_batch_arrays(node_table, lits0, lits1, alloc, alloc_batch=None):
    """Array-native :func:`get_or_create_batch` core.

    Takes two parallel int64 literal arrays and returns
    ``(literals, probe_works)`` as int64 ndarrays — the column-native
    pass kernels feed these straight into ``launch_batch`` without a
    list round-trip.  Below :data:`_SCALAR_CUTOFF` the fused scalar
    loop :func:`goc_small` runs (same layouts, same counters).
    """
    n = lits0.shape[0]
    if n < _SCALAR_CUTOFF:
        if observe.enabled:
            observe.count("path.vec.goc_batch_arrays.scalar")
        lits, works = goc_small(
            node_table,
            zip(lits0.tolist(), lits1.tolist()),
            alloc,
            alloc_batch,
        )
        return (
            np.array(lits, dtype=np.int64),
            np.array(works, dtype=np.int64),
        )
    if observe.enabled:
        observe.count("path.vec.goc_batch_arrays.vector")
    table = node_table._table
    key0 = np.minimum(lits0, lits1)
    key1 = np.maximum(lits0, lits1)
    lits = np.full(n, -1, dtype=np.int64)
    probes = np.zeros(n, dtype=np.int64)
    # Trivial-AND folding, in the scalar rule order.
    lits[key0 == 0] = 0
    rest = lits == -1
    pick = rest & (key0 == 1)
    lits[pick] = key1[pick]
    rest &= ~pick
    pick = rest & (key0 == key1)
    lits[pick] = key0[pick]
    rest &= ~pick
    lits[rest & (key0 == (key1 ^ 1))] = 0
    pending = np.flatnonzero(lits == -1)
    start = 0
    while start < pending.size:
        room = table._room()
        if room <= 0:
            # Growth is imminent, and its scalar timing depends on
            # whether the *next* item misses (growth happens inside
            # insert, after the lookup probed the old layout).  Replay
            # one item through the fused loop to keep the sequence
            # exact (a miss allocates through ``alloc``), then resume.
            index = int(pending[start])
            (lit,), (work,) = goc_small(
                node_table,
                ((int(key0[index]), int(key1[index])),),
                alloc,
            )
            lits[index] = lit
            probes[index] = work
            start += 1
            continue
        stop = min(pending.size, start + room)
        chunk = pending[start:stop]
        clit, cprb = _goc_chunk(
            table, key0[chunk], key1[chunk], alloc, alloc_batch
        )
        lits[chunk] = clit
        probes[chunk] = cprb
        start = stop
    return lits, probes


def goc_small(node_table, pairs, alloc, alloc_batch=None):
    """Fused per-item :meth:`NodeHashTable.get_or_create` loop.

    One Python loop over the table's memoryview twins replays the
    scalar sequence item by item — the fold rules in their order, the
    lookup walk, the insert's growth check — but hashes and walks each
    key once: a miss claims the empty slot its lookup stopped on
    (the insert would walk the same path to it) unless the insert
    would grow the table first, in which case it walks the new layout.
    Misses hold a negative sentinel (as in :func:`_goc_chunk`), so a
    later duplicate in the batch hits it; node ids are allocated at
    the end in batch order, through one ``alloc_batch`` call when
    given (plain lists in, var ids out) and ``alloc`` per miss
    otherwise, and patched over the sentinels; if that allocation
    raises, the sentinels leave the table before the error propagates.
    ``pairs`` is an iterable of Python-int literal pairs; returns
    ``(literals, probe_works)`` as lists.
    """
    table = node_table._table
    tkey0, tkey1, tvalue = table._key0, table._key1, table._value
    capacity = len(tvalue)
    mask = capacity - 1
    limit = capacity * table._load_factor
    size = table._size
    lits = []
    works = []
    miss0 = []
    miss1 = []
    miss_slots = []
    shared = []  # positions in ``lits`` holding a sentinel
    lookups = 0
    total = 0
    for key0, key1 in pairs:
        if key0 > key1:
            key0, key1 = key1, key0
        # Trivial-AND folding, in the scalar rule order.
        if key0 == 0 or key0 == 1 or key0 == key1 or key0 == (key1 ^ 1):
            if key0 == 0:
                lits.append(0)
            elif key0 == 1:
                lits.append(key1)
            elif key0 == key1:
                lits.append(key0)
            else:
                lits.append(0)
            works.append(0)
            continue
        lookups += 1
        # ``hashtable._hash_key``; its final 64-bit wrap is implied by
        # the slot mask.
        hashed = (key0 * _MIX_INT + key1) & _MASK64
        hashed ^= hashed >> 31
        hashed = (hashed * _MIX_INT) & _MASK64
        slot = hashed & mask
        probes = 1
        value = tvalue[slot]
        while value != _EMPTY and (
            tkey0[slot] != key0 or tkey1[slot] != key1
        ):
            slot = (slot + 1) & mask
            probes += 1
            value = tvalue[slot]
        if value != _EMPTY:
            total += probes
            works.append(probes)
            if value < 0:
                shared.append(len(lits))
                lits.append(value)
            else:
                lits.append(value << 1)
            continue
        more = probes
        if size + 1 > limit:
            table._size = size
            table._grow()
            tkey0, tkey1, tvalue = table._key0, table._key1, table._value
            mask = len(tvalue) - 1
            limit = len(tvalue) * table._load_factor
            if miss_slots:
                # The rehash moved this batch's sentinels: re-find them.
                held = np.flatnonzero(table._avalue < _EMPTY)
                moved = np.empty(len(miss_slots), dtype=np.int64)
                moved[-(table._avalue[held] + 2)] = held
                miss_slots = moved.tolist()
            slot = hashed & mask
            more = 1
            while tvalue[slot] != _EMPTY:
                slot = (slot + 1) & mask
                more += 1
        sentinel = -2 - len(miss_slots)
        tkey0[slot] = key0
        tkey1[slot] = key1
        tvalue[slot] = sentinel
        size += 1
        miss0.append(key0)
        miss1.append(key1)
        miss_slots.append(slot)
        shared.append(len(lits))
        lits.append(sentinel)
        works.append(probes + more)
        total += probes + more
    table._size = size
    if miss_slots:
        try:
            if alloc_batch is not None:
                created = alloc_batch(miss0, miss1)
            else:
                created = [alloc(k0, k1) for k0, k1 in zip(miss0, miss1)]
        except BaseException:
            table._drop_sentinels(len(tvalue) != capacity)
            raise
        for slot, var in zip(miss_slots, created):
            tvalue[slot] = var
        for pos in shared:
            lits[pos] = created[-2 - lits[pos]] << 1
    if observe.enabled:
        _count("hashtable.lookups", lookups)
        _count("hashtable.inserts", len(miss_slots))
        _count("hashtable.probes", total)
    return lits, works


def _goc_chunk(table, key0, key1, alloc, alloc_batch=None):
    """get_or_create for one growth-free chunk; returns (lits, works).

    Misses insert a per-group negative sentinel value during stable
    placement; node ids are then allocated in batch order and patched
    over the sentinels (in the table slots and the results); if an
    allocation raises, the unpatched sentinels leave the table.  A miss
    costs double its path length — the scalar loop pays the probe path
    once for the lookup and once more for the insert; intra-batch
    duplicates of a missing key pay it once (their lookup finds the
    freshly created node).
    """
    m = key0.shape[0]
    rep_pos, reps = group_keys(key0, key1)
    sentinels = -(np.arange(reps.shape[0], dtype=np.int64) + 2)
    hit, slot, path = table._stable_place(key0[reps], key1[reps], sentinels)
    miss = ~hit
    table._size += int(miss.sum())
    res = table._avalue[slot][rep_pos]
    prb = path[rep_pos]
    prb[reps[miss]] *= 2  # doubled for the missing representative only
    # Allocate fresh node ids in batch order (``reps`` is ascending,
    # so representative positions are batch order), exactly like the
    # scalar loop.
    variables = np.empty(reps.shape[0], dtype=np.int64)
    tvalue = table._avalue
    try:
        if alloc_batch is not None:
            miss_pos = np.flatnonzero(miss)
            if miss_pos.size:
                created = alloc_batch(
                    key0[reps[miss_pos]], key1[reps[miss_pos]]
                )
                variables[miss_pos] = created
                tvalue[slot[miss_pos]] = created
        else:
            for pos in np.flatnonzero(miss).tolist():
                var = alloc(int(key0[reps[pos]]), int(key1[reps[pos]]))
                variables[pos] = var
                tvalue[slot[pos]] = var
    except BaseException:
        # A chunk never grows the table; misses already allocated
        # one by one keep their (real) values.
        table._drop_sentinels(False)
        raise
    shared = res <= -2
    if shared.any():
        res[shared] = variables[-(res[shared] + 2)]
    if observe.enabled:
        _count("hashtable.lookups", m)
        _count("hashtable.inserts", int(miss.sum()))
        _count("hashtable.probes", int(prb.sum()))
    return res << 1, prb
