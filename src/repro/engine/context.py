"""Version-keyed derived-state cache for one AIG (``GraphContext``).

Every optimization pass needs the same derived state — levels, fanout
counts, fanout degrees, the PO fanout mask, the depth — and before
the engine existed each pass recomputed all of it from scratch on
entry *and* exit, even though a sequence hands the very same graph
object from one pass to the next.  ``GraphContext`` memoizes that
state per AIG, keyed on the AIG's mutation counters
(:class:`repro.aig.aig.Aig` ``_version``, plus ``_po_version`` where
the value depends on the PO list):

* an exact key match is a **hit** — the cached value is returned;
* anything else is a **miss** and recomputes through the raw
  functions of :mod:`repro.aig.traversal`.

The cached values are exactly what the raw functions return, so reuse
is bit-identical by construction.  Hit/miss events feed the
``engine.cache_*`` counters of the metrics registry (see
docs/OBSERVABILITY.md) and the per-context ``counters`` dict.

Levels and fanout counts are int64 ndarrays owned by the context and
handed out as ``memoryview`` twins (plain-int scalar indexing at list
speed); :meth:`GraphContext.fanout_counts_array` exposes the ndarray
itself to the column-native kernels.  The PO mask is a plain Python
list, the fanout degrees an int64 ndarray.

**Cached values are shared, not copied** — between calls and between
a context and its :meth:`~GraphContext.fork`.  Callers must treat them
as read-only, or restore them exactly (the dereference/re-reference
discipline of the MFFC walks qualifies).

The module also owns the alias-aware helpers the passes share:
:func:`resolved_levels` (dedup's levelization and the ``rfc`` serial
lane's reachability and level caps: the graph's one post-order walk,
:meth:`repro.aig.aig.Aig.post_order`, plus a level pass) and
:func:`resolved_fanout_counts` (the pass lanes' reference counts and
dedup's dangling removal).  Both read the alias map through one
:func:`repro.aig.aig.resolve_aliases` array and killed nodes through
the graph's dead column.  The alias map mutates without version
bumps, so they are *not* memoized.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro import observe
from repro.aig import traversal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aig.aig import Aig

_SLOTS = (
    "_levels",
    "_fanout_counts",
    "_fanout_degrees",
    "_po_mask",
    "_depth",
)


class GraphContext:
    """Memoized derived state of one :class:`~repro.aig.aig.Aig`."""

    __slots__ = ("_aig", "counters") + _SLOTS

    def __init__(self, aig: "Aig") -> None:
        # Weak: the AIG owns its context (``Aig._graph_context``), and
        # a strong reference back would leave every dropped AIG to the
        # cyclic collector, so peak memory would follow its timing.
        self._aig = weakref.ref(aig)
        self.counters = {"hits": 0, "misses": 0}
        # Each slot holds (key, value) — (key, ndarray, memoryview) for
        # the fanout counts.
        for slot in _SLOTS:
            setattr(self, slot, None)

    @property
    def aig(self) -> "Aig":
        """The AIG this context describes."""
        return self._aig()

    def _cached(self, slot: str, key, count_miss: bool = True):
        """The slot's entry when its key matches (a hit), else None."""
        entry = getattr(self, slot)
        if entry is not None and entry[0] == key:
            self.counters["hits"] += 1
            if observe.enabled:
                observe.count("engine.cache_hits")
            return entry
        if count_miss:
            self.counters["misses"] += 1
            if observe.enabled:
                observe.count("engine.cache_misses")
        return None

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    def levels(self):
        """Level of every variable (read-only; see module docstring)."""
        key = self.aig._version
        entry = self._cached("_levels", key)
        if entry is None:
            levels = traversal.aig_levels_array(self.aig)
            entry = self._levels = (key, memoryview(levels))
        return entry[1]

    def depth(self) -> int:
        """AIG depth (max PO driver level); memoized over levels()."""
        aig = self.aig
        key = (aig._version, aig._po_version)
        # A depth miss is not counted: the levels() lookup it makes is.
        entry = self._cached("_depth", key, count_miss=False)
        if entry is None:
            levels = self.levels()
            depth = 0
            for lit in aig._pos:
                level = levels[lit >> 1]
                if level > depth:
                    depth = level
            entry = self._depth = (key, depth)
        return entry[1]

    def fanout_counts(self):
        """PO-inclusive fanout edge counts (read-only)."""
        return self._fanout_counts_entry()[2]

    def fanout_counts_array(self):
        """Int64 ndarray of :meth:`fanout_counts` (column-native kernels).

        Same cache entry and hit/miss accounting as
        :meth:`fanout_counts`; callers must treat the array as
        read-only, exactly like :meth:`fanout_counts`.
        """
        return self._fanout_counts_entry()[1]

    def _fanout_counts_entry(self) -> tuple:
        aig = self.aig
        key = (aig._version, aig._po_version)
        entry = self._cached("_fanout_counts", key)
        if entry is None:
            counts = traversal.fanout_counts_array(aig)
            entry = self._fanout_counts = (key, counts, memoryview(counts))
        return entry

    def fanout_degrees(self):
        """Per-variable live-AND reader counts (int64 ndarray).

        ``degrees[v]`` is the number of distinct live ANDs reading
        ``v``: POs excluded, a double edge (same node in both fanins)
        counts once.  The FFC test of ``rf``'s collapse reads
        these reader counts instead of an adjacency list.  Read-only,
        like every derived value.
        """
        aig = self.aig
        key = aig._version
        entry = self._cached("_fanout_degrees", key)
        if entry is None:
            fan0, fan1, dead = aig.arrays()
            live = (fan0 >= 0) & ~dead
            v0 = fan0[live] >> 1
            v1 = fan1[live] >> 1
            degrees = np.bincount(v0, minlength=aig.num_vars)
            degrees = degrees + np.bincount(
                v1[v1 != v0], minlength=aig.num_vars
            )
            degrees = degrees.astype(np.int64, copy=False)
            entry = self._fanout_degrees = (key, degrees)
        return entry[1]

    def po_fanout_mask(self) -> list[bool]:
        """PO driver mask (read-only)."""
        aig = self.aig
        key = (aig._version, aig._po_version)
        entry = self._cached("_po_mask", key)
        if entry is None:
            entry = self._po_mask = (key, traversal.po_fanout_mask(aig))
        return entry[1]

    def fork(self, clone: "Aig") -> "GraphContext":
        """Context for ``clone`` sharing this context's cache entries.

        ``clone`` must be a fresh :meth:`~repro.aig.aig.Aig.clone` of
        this context's AIG (the version counters carry over, keeping
        the shared entries valid).  Entries are read-only by contract,
        and a mutation on either side bumps that side's version, so
        its next lookup misses and computes a fresh value of its own.
        """
        forked = GraphContext(clone)
        for slot in _SLOTS:
            setattr(forked, slot, getattr(self, slot))
        return forked


def context_for(aig: "Aig") -> GraphContext:
    """The AIG's attached context, created on first use."""
    context = aig._graph_context
    if context is None:
        context = GraphContext(aig)
        aig._graph_context = context
    return context


def clone_with_context(aig: "Aig") -> "Aig":
    """Clone ``aig`` and fork its derived-state cache onto the clone.

    The working copy every in-place pass makes starts out structurally
    identical to its source, so whatever the source context already
    knows (entry levels, fanout counts) is valid for the clone too —
    forking turns the clone's first lookups into hits instead of
    recomputation.
    """
    clone = aig.clone()
    clone._graph_context = context_for(aig).fork(clone)
    return clone


# ----------------------------------------------------------------------
# Alias-aware helpers (consolidated from dedup / algorithms.common)
# ----------------------------------------------------------------------


def resolved_levels(aig: "Aig", final) -> tuple[np.ndarray, np.ndarray]:
    """Levels and topological order of the alias-resolved live graph.

    ``final`` is the :func:`repro.aig.aig.resolve_aliases` array of the
    alias map.  Aliases may point *forward* (a replaced root redirects
    to a newer node id), so stored id order is not a topological order
    of the resolved graph: the order is
    :meth:`~repro.aig.aig.Aig.post_order`'s walk from the resolved POs
    (the numbering :meth:`~repro.aig.aig.Aig.compact` gives), and one
    pass over it assigns the levels.  Returns ``(levels, order)``: an
    int64 array with the level of every variable the walk reached
    (constant and PIs at 0, ``-1`` for unreached variables), and the
    reached AND variables in post-order (int64).  A cycle through
    resolved fanins raises ``ValueError``.
    """
    order = aig.post_order(final)
    fan0, fan1, _ = aig.arrays()
    var0 = final[fan0[order] >> 1] >> 1
    var1 = final[fan1[order] >> 1] >> 1
    levels = np.full(fan0.shape[0], -1, dtype=np.int64)
    levels[0] = 0
    levels[aig.pi_array()] = 0
    level = memoryview(levels)
    for var, v0, v1 in zip(order.tolist(), var0.tolist(), var1.tolist()):
        l0 = level[v0]
        l1 = level[v1]
        level[var] = (l0 if l0 > l1 else l1) + 1
    return levels, order


def resolved_fanout_counts(aig: "Aig", final) -> np.ndarray:
    """Reference counts over the alias-resolved live structure.

    ``final`` is the :func:`repro.aig.aig.resolve_aliases` array of the
    alias map.  Live ANDs are those neither dead in the graph nor
    aliased (their entry of ``final`` points elsewhere); each
    contributes its two resolved fanin variables, and each PO its
    resolved driver — one ``bincount`` over the three.  Returns an
    int64 array of ``aig.num_vars`` counts.
    """
    fan0, fan1, dead = aig.arrays()
    num_vars = fan0.shape[0]
    unaliased = (final >> 1) == np.arange(num_vars, dtype=np.int64)
    ands = np.flatnonzero((fan0 >= 0) & ~dead & unaliased)
    del unaliased
    refs = np.concatenate(
        (
            final[fan0[ands] >> 1] >> 1,
            final[fan1[ands] >> 1] >> 1,
            final[aig.po_array() >> 1] >> 1,
        )
    )
    return np.bincount(refs, minlength=num_vars)
