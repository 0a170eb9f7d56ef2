"""Flat column storage for the array-backed AIG core.

The paper's GPU resynthesis operates on struct-of-arrays graphs sized
in the tens of millions of nodes; a Python object/dict representation
melts long before that.  This module provides the two primitives the
:class:`repro.aig.aig.Aig` core is built from:

:class:`Column`
    One grow-in-place column.  The backing store is a preallocated
    ``int64``/``bool`` buffer that grows geometrically, paired with a
    ``memoryview`` *twin* that serves scalar reads and writes at list
    speed and yields plain Python ints (no ``np.int64`` boxing leaking
    into literals or JSON).  Vector callers slice the buffer zero-copy
    via :meth:`Column.nparray`.

:class:`FlatStrash`
    The structural-hashing table ``(fanin0, fanin1) -> var`` as three
    parallel ``array('q')`` columns with open addressing, linear
    probing and tombstones — a dict-compatible subset API at a
    fraction of the per-entry footprint of
    ``dict[tuple[int, int], int]`` (24 bytes per slot versus ~250 per
    dict entry once the key tuple and boxed ints are counted).  Probe
    order is an internal detail: lookups are value-deterministic, so
    graph construction is bit-identical regardless of layout.

Bulk construction (docs/ARCHITECTURE.md, "Bulk construction") rides on
that determinism contract: :meth:`FlatStrash.build_bulk` and every
occupancy rebuild place whole key arrays at once with NumPy (grouped
probe rounds in the style of :class:`repro.parallel.hashtable.HashTable`),
at every size.  They hash with :func:`_hash_pairs`, an exact NumPy
replica of CPython's tuple hash, so a key lands on the chain the
scalar :meth:`FlatStrash._find` walks.
"""

from __future__ import annotations

from array import array

import numpy as _np


class Column:
    """A grow-in-place typed column with a scalar twin.

    ``data`` is a preallocated ``int64``/``bool`` buffer that grows
    geometrically; ``view`` is a ``memoryview`` over its full capacity
    and is the scalar access path.  Callers indexing ``view`` must
    stay below ``size`` — rows beyond it are uninitialized capacity.
    """

    __slots__ = ("data", "view", "size", "kind")

    def __init__(self, kind: str = "int", capacity: int = 0) -> None:
        self.kind = kind
        self.size = 0
        dtype = _np.int64 if kind == "int" else _np.bool_
        self.data = _np.zeros(max(capacity, 4), dtype=dtype)
        self.view = memoryview(self.data)

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    def _grow(self, need: int) -> None:
        capacity = max(need, 2 * len(self.data), 4)
        buffer = _np.zeros(capacity, dtype=self.data.dtype)
        buffer[: self.size] = self.data[: self.size]
        self.data = buffer
        self.view = memoryview(buffer)

    def reserve(self, capacity: int) -> None:
        """Grow the buffer to at least ``capacity`` rows."""
        if capacity > len(self.data):
            self._grow(capacity)

    def append(self, value) -> None:
        if self.size == len(self.data):
            self._grow(self.size + 1)
        self.view[self.size] = value
        self.size += 1

    def extend_zeros(self, count: int) -> None:
        """Append ``count`` zero rows (single growth step at most)."""
        need = self.size + count
        if need > len(self.data):
            self._grow(need)
        self.data[self.size : need] = 0
        self.size = need

    def extend_array(self, values) -> None:
        """Append a whole batch of rows (single growth step at most)."""
        need = self.size + len(values)
        if need > len(self.data):
            self._grow(need)
        self.data[self.size : need] = values
        self.size = need

    # ------------------------------------------------------------------
    # Wholesale replacement
    # ------------------------------------------------------------------

    def adopt(self, values) -> None:
        """Replace the contents with ``values`` (any sequence).

        A contiguous ndarray of the column's dtype that owns its data
        becomes the buffer itself, without a copy: the caller hands it
        over.  Anything else, a view into another array included, is
        copied into a fresh buffer.  Either way holders of old views
        keep seeing the superseded snapshot.
        """
        if (
            isinstance(values, _np.ndarray)
            and values.flags.owndata
            and values.flags.c_contiguous
            and values.dtype == self.data.dtype
        ):
            self.data = values
        else:
            self.data = _np.array(values, dtype=self.data.dtype)
        self.view = memoryview(self.data)
        self.size = len(values)

    def adopt_zeros(self, count: int) -> None:
        """Replace the contents with ``count`` zero rows."""
        self.data = _np.zeros(max(count, 4), dtype=self.data.dtype)
        self.view = memoryview(self.data)
        self.size = count

    def truncate(self, size: int) -> None:
        self.size = size

    def clear(self) -> None:
        self.truncate(0)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def slice(self):
        """Scalar twin (``memoryview``) of the valid prefix."""
        return self.view[: self.size]

    def nparray(self):
        """Zero-copy ndarray of the valid prefix."""
        return self.data[: self.size]

    def tolist(self) -> list:
        return self.data[: self.size].tolist()

    def duplicate(self) -> "Column":
        """An independent copy (same capacity, same rows)."""
        new = Column.__new__(Column)
        new.kind = self.kind
        new.size = self.size
        buffer = _np.zeros(len(self.data), dtype=self.data.dtype)
        buffer[: self.size] = self.data[: self.size]
        new.data = buffer
        new.view = memoryview(buffer)
        return new


#: Slot sentinels for :class:`FlatStrash` (vars are always >= 1).
_EMPTY = -1
_TOMB = -2

#: Constants of CPython's tuple hash (xxHash-style, 64-bit build) and
#: of its integer hash (reduction modulo the Mersenne prime 2**61-1).
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_PYHASH_MODULUS = (1 << 61) - 1


def _hash_pairs(key0, key1):
    """``hash((k0, k1))`` as ``uint64`` over whole arrays.

    Bit-exact replica of CPython's tuple hash over two non-negative
    int lanes, so ``_hash_pairs(...) & mask`` lands on the same slot
    as the scalar :meth:`FlatStrash._find`.  Int/tuple hashes are not
    randomized by ``PYTHONHASHSEED``, so this is stable across runs.
    """
    modulus = _np.uint64(_PYHASH_MODULUS)
    acc = _np.full(key0.shape, _XXPRIME_5, dtype=_np.uint64)
    with _np.errstate(over="ignore"):
        for lane in (key0, key1):
            lane = lane.astype(_np.uint64) % modulus
            acc += lane * _np.uint64(_XXPRIME_2)
            acc = (acc << _np.uint64(31)) | (acc >> _np.uint64(33))
            acc *= _np.uint64(_XXPRIME_1)
        acc += _np.uint64(2) ^ (
            _np.uint64(_XXPRIME_5) ^ _np.uint64(3527539)
        )
    # CPython maps a hash of -1 to -2; as uint64: all-ones maps to
    # the constant below (== (uint64)-2 reduced by tuplehash).
    acc[acc == _np.uint64(0xFFFFFFFFFFFFFFFF)] = _np.uint64(1546275796)
    return acc


class FlatStrash:
    """Open-addressing ``(fanin0, fanin1) -> var`` structural-hash table.

    Implements the subset of the ``dict`` protocol the AIG core uses:
    ``get`` / ``__setitem__`` / ``__delitem__`` / ``setdefault`` /
    ``__contains__`` / ``__len__`` / ``copy``, plus the value-checked
    :meth:`delete_entry` / :meth:`delete_bulk`.  Deleting a missing key
    is a no-op (the core only deletes keys it just looked up).
    """

    __slots__ = (
        "_key0", "_key1", "_value", "_mask", "_size", "_used", "rehashes"
    )

    def __init__(self, capacity: int = 16) -> None:
        cap = 16
        while cap < capacity:
            cap <<= 1
        #: Number of occupancy-driven rebuilds over the table's life.
        #: Pre-sizing (``reserve`` on an empty table) does not count —
        #: the counter measures re-placement work, i.e. the geometric
        #: rehash storms that pre-sizing exists to avoid.
        self.rehashes = 0
        self._alloc(cap)

    def _alloc(self, cap: int) -> None:
        self._key0 = array("q", bytes(8 * cap))
        self._key1 = array("q", bytes(8 * cap))
        self._value = array("q", [_EMPTY]) * cap
        self._mask = cap - 1
        self._size = 0
        self._used = 0

    def __len__(self) -> int:
        return self._size

    def _find(self, k0: int, k1: int) -> tuple[int, int]:
        """(slot of a live match or -1, insertion slot or -1)."""
        mask = self._mask
        values = self._value
        key0 = self._key0
        key1 = self._key1
        slot = hash((k0, k1)) & mask
        free = -1
        while True:
            value = values[slot]
            if value == _EMPTY:
                return -1, (slot if free < 0 else free)
            if value == _TOMB:
                if free < 0:
                    free = slot
            elif key0[slot] == k0 and key1[slot] == k1:
                return slot, -1
            slot = (slot + 1) & mask

    def get(self, key, default=None):
        slot, _ = self._find(key[0], key[1])
        if slot < 0:
            return default
        return self._value[slot]

    def __contains__(self, key) -> bool:
        return self._find(key[0], key[1])[0] >= 0

    def __setitem__(self, key, var: int) -> None:
        slot, free = self._find(key[0], key[1])
        if slot >= 0:
            self._value[slot] = var
            return
        self._insert(free, key[0], key[1], var)

    def setdefault(self, key, var: int) -> int:
        slot, free = self._find(key[0], key[1])
        if slot >= 0:
            return self._value[slot]
        self._insert(free, key[0], key[1], var)
        return var

    def __delitem__(self, key) -> None:
        slot, _ = self._find(key[0], key[1])
        if slot >= 0:
            self._value[slot] = _TOMB
            self._size -= 1

    def delete_entry(self, k0: int, k1: int, value: int) -> None:
        """Delete key ``(k0, k1)`` if its live entry holds ``value``.

        ``get(key) == value`` then ``del table[key]`` in one probe.
        """
        slot, _ = self._find(k0, k1)
        if slot >= 0 and self._value[slot] == value:
            self._value[slot] = _TOMB
            self._size -= 1

    def _insert(self, slot: int, k0: int, k1: int, var: int) -> None:
        if self._value[slot] == _EMPTY:
            self._used += 1
        self._key0[slot] = k0
        self._key1[slot] = k1
        self._value[slot] = var
        self._size += 1
        # Keep occupancy (live + tombstones) at or under half the
        # capacity so a probe chain always terminates on an empty slot.
        if 2 * self._used > self._mask:
            self._rebuild(self._target_capacity(self._size))

    @staticmethod
    def _target_capacity(entries: int) -> int:
        cap = 16
        while cap < 4 * (entries + 1):
            cap <<= 1
        return cap

    def _rebuild(self, cap: int) -> None:
        old_key0 = self._key0
        old_key1 = self._key1
        old_values = self._value
        size = self._size
        self._alloc(cap)
        if not size:
            # Nothing live to re-place (``reserve`` before a read, or
            # only tombstones): no rehash, and no array set-up.
            return
        self.rehashes += 1
        from repro import observe

        if observe.enabled:
            observe.count("strash.rehashes")
        values = _np.frombuffer(old_values, dtype=_np.int64)
        live = values >= 0
        self._place_bulk(
            _np.frombuffer(old_key0, dtype=_np.int64)[live],
            _np.frombuffer(old_key1, dtype=_np.int64)[live],
            values[live],
        )
        self._size = size

    # ------------------------------------------------------------------
    # Bulk operations (vectorized)
    # ------------------------------------------------------------------

    def _place_bulk(self, key0, key1, values) -> None:
        """Place pairwise-distinct, known-absent keys (int64 arrays).

        The caller guarantees capacity (no rebuild happens here).  Slot
        assignment runs in grouped probe rounds: every pending key walks
        to its next free slot, the lowest batch index wins each
        contested slot, losers re-probe next round.  Placement order is
        deterministic but need not match the scalar insertion layout —
        lookups are value-deterministic either way (module docstring).
        """
        table_k0 = _np.frombuffer(self._key0, dtype=_np.int64)
        table_k1 = _np.frombuffer(self._key1, dtype=_np.int64)
        table_v = _np.frombuffer(self._value, dtype=_np.int64)
        mask = self._mask
        slot = (_hash_pairs(key0, key1) & _np.uint64(mask)).astype(
            _np.int64
        )
        pending = _np.arange(key0.shape[0], dtype=_np.int64)
        filled = 0
        while pending.size:
            stuck = _np.flatnonzero(table_v[slot] >= 0)
            while stuck.size:
                slot[stuck] = (slot[stuck] + 1) & mask
                stuck = stuck[table_v[slot[stuck]] >= 0]
            order = _np.lexsort((pending, slot))
            sorted_slots = slot[order]
            first = _np.empty(order.shape[0], dtype=bool)
            first[0] = True
            first[1:] = sorted_slots[1:] != sorted_slots[:-1]
            winners = order[first]
            win_slots = slot[winners]
            win_keys = pending[winners]
            filled += int((table_v[win_slots] == _EMPTY).sum())
            table_k0[win_slots] = key0[win_keys]
            table_k1[win_slots] = key1[win_keys]
            table_v[win_slots] = values[win_keys]
            losers = order[~first]
            pending = pending[losers]
            slot = slot[losers]
        self._used += filled

    def delete_bulk(self, key0, key1, values) -> None:
        """Delete every key whose live entry holds the paired value.

        The ``(key, value)`` pairs (int64 arrays) must be pairwise
        distinct.  The result equals ``del table[key]`` for each key
        with ``table.get(key) == value``, in any order: a delete only
        turns a slot into a tombstone, which every probe walks past, so
        no delete moves another key's slot.  All probes advance
        together, one slot per round.
        """
        table_k0 = _np.frombuffer(self._key0, dtype=_np.int64)
        table_k1 = _np.frombuffer(self._key1, dtype=_np.int64)
        table_v = _np.frombuffer(self._value, dtype=_np.int64)
        mask = self._mask
        slot = (_hash_pairs(key0, key1) & _np.uint64(mask)).astype(
            _np.int64
        )
        pending = _np.arange(key0.shape[0], dtype=_np.int64)
        hits = [pending[:0]]
        while pending.size:
            value = table_v[slot]
            found = (
                (value >= 0)
                & (table_k0[slot] == key0[pending])
                & (table_k1[slot] == key1[pending])
            )
            hits.append(slot[found & (value == values[pending])])
            walk = ~found & (value != _EMPTY)
            pending = pending[walk]
            slot = (slot[walk] + 1) & mask
        deleted = _np.concatenate(hits)
        table_v[deleted] = _TOMB
        self._size -= len(deleted)

    @classmethod
    def build_bulk(cls, key0, key1, values) -> "FlatStrash":
        """A fresh pre-sized table holding the given distinct keys.

        The capacity keeps occupancy at or under a quarter, so the
        placement never triggers a rebuild.
        """
        count = len(values)
        table = cls(cls._target_capacity(count))
        table._place_bulk(
            _np.ascontiguousarray(key0, dtype=_np.int64),
            _np.ascontiguousarray(key1, dtype=_np.int64),
            _np.ascontiguousarray(values, dtype=_np.int64),
        )
        table._size = count
        return table

    def reserve(self, entries: int) -> None:
        """Pre-size the table for ``entries`` live keys."""
        cap = self._target_capacity(entries)
        if cap > self._mask + 1:
            self._rebuild(cap)

    def load_factor(self) -> float:
        """Live entries over slots (post-``reserve`` builds stay <=1/4)."""
        return self._size / (self._mask + 1)

    def stats(self) -> dict[str, float]:
        """Sizing counters for the scale lane and observe gauges."""
        return {
            "entries": self._size,
            "slots": self._mask + 1,
            "used": self._used,
            "load_factor": self.load_factor(),
            "rehashes": self.rehashes,
        }

    def copy(self) -> "FlatStrash":
        new = FlatStrash.__new__(FlatStrash)
        new._key0 = self._key0[:]
        new._key1 = self._key1[:]
        new._value = self._value[:]
        new._mask = self._mask
        new._size = self._size
        new._used = self._used
        new.rehashes = self.rehashes
        return new
