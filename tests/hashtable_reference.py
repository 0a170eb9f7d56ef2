"""Per-item reference of the batched hash table (test oracle).

:class:`repro.parallel.hashtable.HashTable` executes every batch as
whole-array code and must be bit-identical to inserting its items one
at a time: same resident values, same per-item probe counts, same slot
layout, same ``hashtable.*`` counters.  This module keeps that
one-at-a-time table on Python lists — every probe spelled out — and
the per-item ``seed`` / ``get_or_create`` of sharing-aware node
creation on top of it.  The differential tests
(``tests/test_vec_hashtable.py``, ``tests/test_hashtable.py``) diff the
production class against it.
"""

from __future__ import annotations

from repro import observe
from repro.aig.literals import lit_pair_key

_EMPTY = -1

#: Multiplicative hashing constant (Knuth, 64-bit golden ratio).
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _hash_key(key0: int, key1: int) -> int:
    value = (key0 * _MIX + key1) & _MASK64
    value ^= value >> 31
    return (value * _MIX) & _MASK64


class HashTable:
    """Open-addressing hash table from (int, int) keys to int values,
    one item at a time."""

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
        """All (key0, key1, value) triples in slot order."""
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

    # ------------------------------------------------------------------
    # Sharing-aware node creation, one item at a time
    # ------------------------------------------------------------------

    def seed(self, lit0: int, lit1: int, var: int) -> int:
        """Pre-register an existing node; returns probe work."""
        key0, key1 = lit_pair_key(lit0, lit1)
        _, probes = self.insert(key0, key1, var)
        return probes

    def get_or_create(self, lit0: int, lit1: int, alloc) -> tuple[int, int]:
        """Return the literal of AND(lit0, lit1), creating it if new.

        The trivial-AND folding rules apply before any table access.
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
        value, probes = self.lookup(key0, key1)
        if value is not None:
            return value << 1, probes
        var = alloc(key0, key1)
        resident, more = self.insert(key0, key1, var)
        return resident << 1, probes + more
