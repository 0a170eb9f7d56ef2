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
"""

from __future__ import annotations

from repro import observe
from repro.aig.literals import lit_pair_key
from repro.verify import sanitizer

_EMPTY = -1

#: Multiplicative hashing constant (Knuth, 64-bit golden ratio).
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _hash_key(key0: int, key1: int) -> int:
    value = (key0 * _MIX + key1) & _MASK64
    value ^= value >> 31
    return (value * _MIX) & _MASK64


class HashTable:
    """Open-addressing hash table from (int, int) keys to int values.

    The scalar reference: every probe is spelled out one item at a
    time.  :class:`repro.parallel.vec.VecHashTable` inherits these
    single-item operations and vectorizes :meth:`insert_batch`, whose
    loop here is its bit-identity oracle.
    """

    def __init__(self, expected: int = 1024, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor < 1.0:
            raise ValueError("load factor must be in (0, 1)")
        self._load_factor = load_factor
        capacity = 16
        while capacity * load_factor < max(expected, 1):
            capacity *= 2
        self._key0 = [_EMPTY] * capacity
        self._key1 = [_EMPTY] * capacity
        self._value = [_EMPTY] * capacity
        self._size = 0

    @property
    def size(self) -> int:
        """Number of resident key-value pairs."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated slot count (power of two)."""
        return len(self._value)

    # ------------------------------------------------------------------
    # Single-item operations (each returns its probe count as work)
    # ------------------------------------------------------------------

    def insert(self, key0: int, key1: int, value: int) -> tuple[int, int]:
        """Insert a pair; returns ``(resident_value, probes)``.

        If the key already exists the stored value is returned unchanged
        — this "insert then read back" is exactly how shareable nodes
        are discovered (Section III-E).
        """
        if (self._size + 1) > len(self._value) * self._load_factor:
            self._grow()
        mask = len(self._value) - 1
        slot = _hash_key(key0, key1) & mask
        probes = 1
        while True:
            if self._value[slot] == _EMPTY:
                self._key0[slot] = key0
                self._key1[slot] = key1
                self._value[slot] = value
                self._size += 1
                if observe.enabled:
                    observe.count("hashtable.inserts")
                    observe.count("hashtable.probes", probes)
                return value, probes
            if self._key0[slot] == key0 and self._key1[slot] == key1:
                if observe.enabled:
                    observe.count("hashtable.insert_hits")
                    observe.count("hashtable.probes", probes)
                return self._value[slot], probes
            slot = (slot + 1) & mask
            probes += 1

    def lookup(self, key0: int, key1: int) -> tuple[int | None, int]:
        """Find a key; returns ``(value_or_None, probes)``."""
        mask = len(self._value) - 1
        slot = _hash_key(key0, key1) & mask
        probes = 1
        while True:
            if self._value[slot] == _EMPTY:
                value = None
                break
            if self._key0[slot] == key0 and self._key1[slot] == key1:
                value = self._value[slot]
                break
            slot = (slot + 1) & mask
            probes += 1
        if observe.enabled:
            observe.count("hashtable.lookups")
            observe.count("hashtable.probes", probes)
        return value, probes

    def _insert_raw(self, key0: int, key1: int, value: int) -> int:
        """Metric-free insert of a known-fresh key; returns probes.

        Used by rehashing only: every dumped key is unique, so no hit
        branch is needed, and the probes must not be billed as regular
        insert work (they are maintenance, counted separately).
        """
        mask = len(self._value) - 1
        slot = _hash_key(key0, key1) & mask
        probes = 1
        while self._value[slot] != _EMPTY:
            slot = (slot + 1) & mask
            probes += 1
        self._key0[slot] = key0
        self._key1[slot] = key1
        self._value[slot] = value
        self._size += 1
        return probes

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------

    def insert_batch(
        self, keys: list[tuple[int, int]], values: list[int]
    ) -> tuple[list[int], list[int]]:
        """Batched insert; returns (resident values, per-item probes)."""
        out = []
        works = []
        for (key0, key1), value in zip(keys, values):
            resident, probes = self.insert(key0, key1, value)
            out.append(resident)
            works.append(probes)
        return out, works

    def dump(self) -> list[tuple[int, int, int]]:
        """All (key0, key1, value) triples, densely packed.

        Mirrors the table's concurrent compaction to a consecutive
        array; the order is slot order, deterministic for a given
        insertion history.
        """
        return [
            (self._key0[slot], self._key1[slot], self._value[slot])
            for slot in range(len(self._value))
            if self._value[slot] != _EMPTY
        ]

    def _grow(self) -> None:
        if observe.enabled:
            observe.count("hashtable.resizes")
        pairs = self.dump()
        capacity = len(self._value) * 2
        self._key0 = [_EMPTY] * capacity
        self._key1 = [_EMPTY] * capacity
        self._value = [_EMPTY] * capacity
        self._size = 0
        rehash_probes = 0
        for key0, key1, value in pairs:
            rehash_probes += self._insert_raw(key0, key1, value)
        if observe.enabled:
            observe.count("hashtable.rehash_probes", rehash_probes)


class NodeHashTable:
    """Sharing-aware AND-node creation on top of :class:`HashTable`.

    Keys are canonical fanin pairs; values are node variable ids.  The
    trivial-AND folding rules are applied before any table access, like
    the GPU node-creation kernel does.  The batched calls run the
    kernels of :mod:`repro.parallel.vec`; the per-item :meth:`seed` /
    :meth:`get_or_create` are their scalar reference (``seed`` also
    serves small seed batches; ``get_or_create`` only the tests'
    differentials).
    """

    def __init__(self, expected: int = 1024) -> None:
        from repro.parallel.vec import VecHashTable

        self._table = VecHashTable(expected)

    @property
    def size(self) -> int:
        """Number of registered AND nodes."""
        return self._table.size

    def seed(self, lit0: int, lit1: int, var: int) -> int:
        """Pre-register an existing node; returns probe work."""
        key0, key1 = lit_pair_key(lit0, lit1)
        _, probes = self._table.insert(key0, key1, var)
        return probes

    def seed_batch(
        self, lits0: list[int], lits1: list[int], variables: list[int]
    ) -> list[int]:
        """Batched :meth:`seed`; returns per-item probe works."""
        if sanitizer.enabled:
            sanitizer.current().on_table_batch(
                "seed",
                [
                    lit_pair_key(lit0, lit1)
                    for lit0, lit1 in zip(lits0, lits1)
                ],
            )
        from repro.parallel import vec

        return vec.seed_batch(self, lits0, lits1, variables)

    def get_or_create(self, lit0: int, lit1: int, alloc) -> tuple[int, int]:
        """Return the literal of AND(lit0, lit1), creating it if new.

        ``alloc(key0, key1)`` must append a fresh raw AND node and
        return its variable id; it is called only when no equivalent
        node is resident.  Returns ``(literal, probe_work)``.
        """
        key0, key1 = lit_pair_key(lit0, lit1)
        if key0 == 0:
            return 0, 0
        if key0 == 1:
            return key1, 0
        if key0 == key1:
            return key0, 0
        if key0 == (key1 ^ 1):
            return 0, 0
        value, probes = self._table.lookup(key0, key1)
        if value is not None:
            return value << 1, probes
        var = alloc(key0, key1)
        resident, more = self._table.insert(key0, key1, var)
        return resident << 1, probes + more

    def get_or_create_batch(
        self, pairs: list[tuple[int, int]], alloc, alloc_batch=None
    ) -> tuple[list[int], list[int]]:
        """Batched :meth:`get_or_create` over fanin-literal pairs.

        ``alloc`` is called in batch order for the items no equivalent
        node exists for — the deterministic stand-in for the GPU's
        atomicCAS winner-takes-all.  ``alloc_batch``, when provided,
        allocates whole miss chunks in one call (same ids, same order —
        wall-clock only).  Returns (literals, probe works).
        """
        if sanitizer.enabled:
            # Same-key items in one batch are the paper's atomicCAS
            # arbitration case: counted as contention, never a race.
            sanitizer.current().on_table_batch(
                "get_or_create",
                [lit_pair_key(lit0, lit1) for lit0, lit1 in pairs],
            )
        from repro.parallel import vec

        return vec.get_or_create_batch(self, pairs, alloc, alloc_batch)
