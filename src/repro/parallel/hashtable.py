"""Batched linear-probing hash table (the paper's GPU hash table).

Section III-E: node uniqueness during concurrent creation is ensured by
a GPU-parallel hash table supporting *batched* insertion and query of
key-value pairs, using linear probing (memory locality) rather than
chaining, plus a concurrent dump of all pairs to a dense array.

The simulation keeps the exact open-addressing layout (power-of-two
slot array, multiplicative hash, linear probes) so that *probe counts*
— the work units the cost model charges — are faithful to what the GPU
kernels would execute.  Concurrent same-key insertions, which CUDA
resolves by atomicCAS winner-takes-all, are resolved deterministically
in batch order; the paper reports the resulting area variation to be
below 0.001%, and the simulation is simply exact.

:class:`HashTable` is the one table: slot state in int64 arrays, every
batch executed as whole-array NumPy code that reproduces inserting the
items one at a time **bit-identically** — same layouts, same per-item
probe counts, same allocation order, same ``hashtable.*`` counters.
The per-item table that defines those semantics lives on as the test
oracle ``tests/hashtable_reference.py``.  Below :data:`_SCALAR_CUTOFF`
items get-or-create runs the fused loop :meth:`HashTable._goc_small`
instead, which replays the per-item sequence in one pass over the
table.

The interesting kernel is batched hash insertion.  The per-item loop
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
   per-item loop produces by inserting in batch order, and each item's
   probe count is the length of its cumulative walk — also exactly the
   per-item count, because a sequential insert visits every slot
   between its hash slot and its final slot.  The number of rounds is
   the depth of the longest displacement cascade (single digits in
   practice), each touching only the still-unplaced items.

Batched get-or-create inserts negative sentinels for misses, then
allocates node ids in batch order and patches them over the
sentinels, exactly like the per-item loop.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.aig.literals import lit_pair_key
from repro.verify import sanitizer

_EMPTY = -1

#: Most occupied share of the slots; a batch grows the table (doubling
#: it) before an insert would exceed it.
_LOAD_FACTOR = 0.5

#: Multiplicative hashing constant (Knuth, 64-bit golden ratio) and
#: the 64-bit wrap, as Python ints (:meth:`HashTable._goc_small`) and
#: as NumPy scalars (:func:`hash_keys`).
_MIX_INT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MIX = np.uint64(_MIX_INT)
_SHIFT = np.uint64(31)

#: Below this batch size get-or-create runs the fused per-item loop
#: :meth:`HashTable._goc_small` instead of the vector chunks: the same
#: table layout and the same counters either way (pure wall-clock
#: heuristic, never a semantic switch).  Both sides carry traffic on
#: the benchmark workloads (seed 1, get-or-create batches below /
#: at or above the gate): ``b-xl`` 219 / 36, ``rf_resyn-large``
#: 288 / 6, ``resyn2-wide`` 47 / 29, ``rfc-deep`` 526 / 0 (the serial
#: retry lane: median 2.5 items, max 28).  Against the fused loop,
#: forcing this gate to 0 cost +2.1 to +23.5% ``opt_s`` on ``rfc-deep``
#: in five of six paired perfbench runs on a 2-vCPU VM (median +5.2%,
#: one pair -13.3%).  Inserts and seeds have no such fork: on those
#: workloads only two ``resyn2-wide`` seed batches fell below 512
#: items, and at 300 items the vector placement cost the same as the
#: per-item loop.
_SCALAR_CUTOFF = 512


def _count(name: str, value: int) -> None:
    """Aggregate counter bump that, like the per-item loop, never
    materializes a key for zero events."""
    if value:
        observe.count(name, value)


def hash_keys(key0: np.ndarray, key1: np.ndarray) -> np.ndarray:
    """The table's multiplicative hash over key columns (uint64 wrap)."""
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
    :meth:`HashTable._stable_place` uses as the placement priority.
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


class HashTable:
    """Open-addressing table from (int, int) keys to int values.

    :meth:`insert_batch` stores raw keys (dedup's fanin pairs);
    :meth:`seed_batch` and :meth:`get_or_create` take AND fanin
    literals, canonicalize them like :func:`lit_pair_key` and map them
    to node variable ids — the sharing-aware node creation of the
    paper.  Every batch returns its per-item probe counts, the work
    units the cost model charges.
    """

    def __init__(self, expected: int = 1024) -> None:
        capacity = 16
        while capacity * _LOAD_FACTOR < max(expected, 1):
            capacity *= 2
        self._alloc_slots(capacity)
        self._size = 0

    @property
    def size(self) -> int:
        """Number of resident key-value pairs."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated slot count (power of two)."""
        return self._avalue.shape[0]

    def _alloc_slots(self, capacity: int) -> None:
        """Allocate the slot arrays plus their memoryview twins.

        The NumPy arrays serve the vectorized paths; the fused loop
        :meth:`_goc_small` (below :data:`_SCALAR_CUTOFF` and for growth
        replays) goes through ``self._key0``/``self._key1``/
        ``self._value``, *memoryviews* of the same buffers — scalar
        indexing on a memoryview speaks plain Python ints at close to
        list speed, where ndarray scalar indexing would box
        ``np.int64`` on every probe.  ``_acidx`` holds, per slot, the
        batch position of a tentative occupant during stable placement
        (-1 outside it).
        """
        self._akey0 = np.full(capacity, _EMPTY, dtype=np.int64)
        self._akey1 = np.full(capacity, _EMPTY, dtype=np.int64)
        self._avalue = np.full(capacity, _EMPTY, dtype=np.int64)
        self._acidx = np.full(capacity, -1, dtype=np.int64)
        self._key0 = memoryview(self._akey0)
        self._key1 = memoryview(self._akey1)
        self._value = memoryview(self._avalue)

    def dump(self) -> list[tuple[int, int, int]]:
        """All (key0, key1, value) triples, densely packed.

        Mirrors the table's concurrent compaction to a consecutive
        array; the order is slot order, deterministic for a given
        insertion history.
        """
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
        """Inserts guaranteed not to trigger the per-item growth check."""
        return (
            int(self._avalue.shape[0] * _LOAD_FACTOR) - self._size
        )

    def _stable_place(
        self, key0: np.ndarray, key1: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stable placement of a growth-free chunk of DISTINCT keys.

        Returns ``(hit, slot, path)``.  Misses are committed: their
        keys and ``values`` entries are written at their final slots
        (the caller adjusts ``_size`` and rewrites values when the
        semantics require it).  ``path`` is each item's full walk
        length — the per-item probe count.
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
            # batch items (the physical contention the per-item loop
            # resolves implicitly in batch order) — a diagnostic of
            # the vector placement, not part of the bit-identical
            # contract.
            sanitizer.current().on_evictions(rounds - 1)
        return hit, slot, path

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------

    def insert_batch(
        self, key0, key1, values
    ) -> tuple[np.ndarray, np.ndarray]:
        """Insert raw key columns in batch order.

        Returns ``(resident values, per-item probes)`` as int64
        arrays: an item whose key is already resident (from an earlier
        batch or an earlier item of this one) gets the resident value
        back — the "insert then read back" by which shareable nodes
        are discovered (Section III-E).
        """
        key0 = np.asarray(key0, dtype=np.int64)
        key1 = np.asarray(key1, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        n = vals.shape[0]
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
        return res, prb

    def seed_batch(self, lits0, lits1, variables) -> np.ndarray:
        """Pre-register existing AND nodes; returns per-item probes."""
        arr0 = np.asarray(lits0, dtype=np.int64)
        arr1 = np.asarray(lits1, dtype=np.int64)
        key0 = np.minimum(arr0, arr1)
        key1 = np.maximum(arr0, arr1)
        if sanitizer.enabled:
            sanitizer.current().on_table_batch(
                "seed", list(zip(key0.tolist(), key1.tolist()))
            )
        _, probes = self.insert_batch(key0, key1, variables)
        return probes

    def get_or_create(
        self, lits0, lits1, alloc
    ) -> tuple[np.ndarray, np.ndarray]:
        """Literal of AND(lits0[i], lits1[i]) for every item of a batch.

        ``lits0``/``lits1`` are two literal columns (lists or int64
        arrays).  Trivial ANDs fold before any table access, like the
        GPU node-creation kernel does.  ``alloc(key0, key1)`` creates
        the batch's new nodes: it receives the canonical fanin pairs
        of the items no equivalent node exists for, in batch order —
        the deterministic stand-in for the GPU's atomicCAS
        winner-takes-all — as two lists (below the gate, and for the
        one-item growth replays of the vector path) or two int64
        arrays (a vector chunk), and returns their variable ids in the
        same form.  Returns ``(literals, probe_works)`` as int64
        arrays.
        """
        n = len(lits0)
        if sanitizer.enabled:
            # Same-key items in one batch are the paper's atomicCAS
            # arbitration case: counted as contention, never a race.
            sanitizer.current().on_table_batch(
                "get_or_create",
                [lit_pair_key(a, b) for a, b in zip(lits0, lits1)],
            )
        if n < _SCALAR_CUTOFF:
            if observe.enabled:
                observe.count("path.hashtable.get_or_create.scalar")
            if isinstance(lits0, np.ndarray):
                lits0 = lits0.tolist()
                lits1 = lits1.tolist()
            lits, works = self._goc_small(zip(lits0, lits1), alloc)
            return (
                np.array(lits, dtype=np.int64),
                np.array(works, dtype=np.int64),
            )
        if observe.enabled:
            observe.count("path.hashtable.get_or_create.vector")
        arr0 = np.asarray(lits0, dtype=np.int64)
        arr1 = np.asarray(lits1, dtype=np.int64)
        key0 = np.minimum(arr0, arr1)
        key1 = np.maximum(arr0, arr1)
        lits = np.full(n, -1, dtype=np.int64)
        probes = np.zeros(n, dtype=np.int64)
        # Trivial-AND folding, in the per-item rule order.
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
            room = self._room()
            if room <= 0:
                # Growth is imminent, and its per-item timing depends
                # on whether the *next* item misses (growth happens
                # inside insert, after the lookup probed the old
                # layout).  Replay one item through the fused loop to
                # keep the sequence exact (a miss allocates through
                # ``alloc`` with one-item lists), then resume.
                index = int(pending[start])
                (lit,), (work,) = self._goc_small(
                    ((int(key0[index]), int(key1[index])),), alloc
                )
                lits[index] = lit
                probes[index] = work
                start += 1
                continue
            stop = min(pending.size, start + room)
            chunk = pending[start:stop]
            clit, cprb = self._goc_chunk(key0[chunk], key1[chunk], alloc)
            lits[chunk] = clit
            probes[chunk] = cprb
            start = stop
        return lits, probes

    def _goc_small(self, pairs, alloc):
        """Fused per-item get-or-create loop.

        One Python loop over the table's memoryview twins replays the
        per-item sequence — the fold rules in their order, the lookup
        walk, the insert's growth check — but hashes and walks each
        key once: a miss claims the empty slot its lookup stopped on
        (the insert would walk the same path to it) unless the insert
        would grow the table first, in which case it walks the new
        layout.  Misses hold a negative sentinel (as in
        :meth:`_goc_chunk`), so a later duplicate in the batch hits
        it; node ids are allocated at the end in batch order, through
        one ``alloc`` call over plain lists, and patched over the
        sentinels; if that allocation raises, the sentinels leave the
        table before the error propagates.  ``pairs`` is an iterable
        of Python-int literal pairs; returns ``(literals,
        probe_works)`` as lists.
        """
        tkey0, tkey1, tvalue = self._key0, self._key1, self._value
        capacity = len(tvalue)
        mask = capacity - 1
        limit = capacity * _LOAD_FACTOR
        size = self._size
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
            # Trivial-AND folding, in the per-item rule order.
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
            # :func:`hash_keys` on Python ints; its final 64-bit wrap
            # is implied by the slot mask.
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
                self._size = size
                self._grow()
                tkey0, tkey1, tvalue = self._key0, self._key1, self._value
                mask = len(tvalue) - 1
                limit = len(tvalue) * _LOAD_FACTOR
                if miss_slots:
                    # The rehash moved this batch's sentinels: re-find
                    # them.
                    held = np.flatnonzero(self._avalue < _EMPTY)
                    moved = np.empty(len(miss_slots), dtype=np.int64)
                    moved[-(self._avalue[held] + 2)] = held
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
        self._size = size
        if miss_slots:
            try:
                created = alloc(miss0, miss1)
            except BaseException:
                self._drop_sentinels(len(tvalue) != capacity)
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

    def _goc_chunk(self, key0, key1, alloc):
        """Get-or-create for one growth-free chunk; returns (lits, works).

        Misses insert a per-group negative sentinel value during stable
        placement; node ids are then allocated in batch order through
        one ``alloc`` call over arrays and patched over the sentinels
        (in the table slots and the results); if the allocation
        raises, the sentinels leave the table.  A miss costs double
        its path length — the per-item loop pays the probe path once
        for the lookup and once more for the insert; intra-batch
        duplicates of a missing key pay it once (their lookup finds
        the freshly created node).
        """
        m = key0.shape[0]
        rep_pos, reps = group_keys(key0, key1)
        sentinels = -(np.arange(reps.shape[0], dtype=np.int64) + 2)
        hit, slot, path = self._stable_place(
            key0[reps], key1[reps], sentinels
        )
        miss = ~hit
        self._size += int(miss.sum())
        res = self._avalue[slot][rep_pos]
        prb = path[rep_pos]
        prb[reps[miss]] *= 2  # doubled for the missing representative only
        # Allocate fresh node ids in batch order (``reps`` is ascending,
        # so representative positions are batch order), exactly like
        # the per-item loop.
        variables = np.empty(reps.shape[0], dtype=np.int64)
        miss_pos = np.flatnonzero(miss)
        if miss_pos.size:
            try:
                created = alloc(key0[reps[miss_pos]], key1[reps[miss_pos]])
            except BaseException:
                # A chunk never grows the table.
                self._drop_sentinels(False)
                raise
            variables[miss_pos] = created
            self._avalue[slot[miss_pos]] = created
        shared = res <= -2
        if shared.any():
            res[shared] = variables[-(res[shared] + 2)]
        if observe.enabled:
            _count("hashtable.lookups", m)
            _count("hashtable.inserts", int(miss.sum()))
            _count("hashtable.probes", int(prb.sum()))
        return res << 1, prb
