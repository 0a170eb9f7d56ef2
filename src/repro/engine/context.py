"""Version-keyed derived-state cache for one AIG (``GraphContext``).

Every optimization pass needs the same derived state — levels, fanout
counts, fanout adjacency, the PO fanout mask, the topological order —
and before the engine existed each pass recomputed all of it from
scratch on entry *and* exit, even though a sequence hands the very same
graph object from one pass to the next.  ``GraphContext`` memoizes that
state per AIG, keyed on the AIG's mutation counters
(:class:`repro.aig.aig.Aig` ``_version`` / ``_shape_version`` /
``_po_version``):

* an exact version match is a **hit** — the cached value is returned;
* a stale version whose *shape* version still matches means the graph
  only grew (appends never change existing rows), so levels, fanout
  counts, fanout lists and the topological order are **extended** in
  place over the new id range instead of recomputed;
* anything else (kill / revive / truncate / PO change where it
  matters) is a **miss** and recomputes through the raw functions of
  :mod:`repro.aig.traversal`.

The cached values are exactly what the raw functions return, so reuse
is bit-identical by construction.  Hit/miss/extend events feed the
``engine.cache_*`` counters of the metrics registry (see
docs/OBSERVABILITY.md) and the per-context ``counters`` dict.

Levels and fanout counts are stored in the graph-owned columns of the
array core (``Aig._levelc`` / ``Aig._nrefc``): a miss adopts the fresh
list into the column, an extend appends/patches the column in place,
and the cached value is the column's scalar twin (a ``memoryview``
slice).  Refcount rewrites bump the AIG's ``_ref_version`` only — they
never invalidate the structural views.  Fanout lists, the PO mask and
the topological order remain plain Python lists cached on the context.

**Cached values are shared, not copied.**  Callers must treat them as
read-only, or restore them exactly (the dereference/re-reference
discipline of the MFFC walks qualifies).

The module also owns the alias-aware helpers that used to be
duplicated across passes: :func:`resolved_levels` (previously
``dedup._resolved_levels``) and :func:`resolved_fanout_counts`
(previously in ``algorithms.common``).  These depend on an alias map
that mutates without version bumps, so they are *not* memoized — the
consolidation is of code, not of cache entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import observe
from repro.aig import traversal
from repro.aig.literals import lit_var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aig.aig import Aig

#: Minimum appended-row count before an in-place extend switches from
#: the scalar loop to the vectorized tail fill.  Wall-clock heuristic
#: only — both paths write identical values; bulk graph producers
#: (``add_and_batch``, the enlarge fast path) append tails in the
#: hundreds of thousands, where the scalar loop dominates pass entry.
_VEC_EXTEND_MIN = 1024

#: Wave cap for the vectorized level fill, mirroring
#: ``traversal._VEC_MAX_WAVES``: a deeper-than-wide tail degrades to
#: one wave per level, where the scalar loop is faster anyway.
_VEC_MAX_WAVES = 96


def _levels_tail_vec(aig: "Aig", col, size: int, num: int) -> bool:
    """Wave-front fill of ``levels[size:num]``; False falls back.

    Rows below ``size`` are final (a level depends only on earlier
    ids), so each wave settles every tail AND whose fanins are
    settled.  Returns ``False`` — leaving the scalar loop to redo the
    whole tail, which is idempotent — when the tail is deeper than
    :data:`_VEC_MAX_WAVES`.
    """
    fan0, fan1, dead = aig.arrays()
    levels = col.nparray()
    live = (fan0[size:num] >= 0) & ~dead[size:num]
    active = np.flatnonzero(live) + size
    if not active.size:
        return True  # dead/PI tail rows keep their zero fill
    var0 = fan0[active] >> 1
    var1 = fan1[active] >> 1
    settled = np.empty(num, dtype=bool)
    settled[:size] = True
    settled[size:num] = ~live
    waves = 0
    while active.size:
        waves += 1
        if waves > _VEC_MAX_WAVES:
            return False
        ready = settled[var0] & settled[var1]
        if not ready.any():  # pragma: no cover - malformed graph
            return False
        wave = active[ready]
        levels[wave] = (
            np.maximum(levels[var0[ready]], levels[var1[ready]]) + 1
        )
        settled[wave] = True
        keep = ~ready
        active = active[keep]
        var0 = var0[keep]
        var1 = var1[keep]
    return True


def _nref_tail_vec(aig: "Aig", col, size: int, num: int) -> None:
    """Add the tail rows' fanin references to the count column."""
    fan0, fan1, dead = aig.arrays()
    live = (fan0[size:num] >= 0) & ~dead[size:num]
    rows = np.flatnonzero(live) + size
    fanin_vars = np.concatenate((fan0[rows] >> 1, fan1[rows] >> 1))
    counts = col.nparray()
    counts += np.bincount(fanin_vars, minlength=num)


class GraphContext:
    """Memoized derived state of one :class:`~repro.aig.aig.Aig`."""

    __slots__ = (
        "aig",
        "counters",
        "_levels",
        "_fanout_counts",
        "_fanout_degrees",
        "_fanout_lists",
        "_po_mask",
        "_topo",
        "_depth",
    )

    def __init__(self, aig: "Aig") -> None:
        self.aig = aig
        self.counters = {"hits": 0, "misses": 0, "extends": 0}
        # Each slot holds (version, value) — plus the PO version where
        # the value depends on the PO list.
        self._levels: tuple | None = None
        self._fanout_counts: tuple | None = None
        self._fanout_degrees: tuple | None = None
        self._fanout_lists: tuple | None = None
        self._po_mask: tuple | None = None
        self._topo: tuple | None = None  # (key, num_vars, order)
        self._depth: tuple | None = None

    # ------------------------------------------------------------------
    # Cache accounting
    # ------------------------------------------------------------------

    def _hit(self) -> None:
        self.counters["hits"] += 1
        if observe.enabled:
            observe.count("engine.cache_hits")

    def _miss(self) -> None:
        self.counters["misses"] += 1
        if observe.enabled:
            observe.count("engine.cache_misses")

    def _extend(self) -> None:
        self.counters["extends"] += 1
        if observe.enabled:
            observe.count("engine.cache_extends")

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    def levels(self) -> list[int]:
        """Level of every variable (read-only; see module docstring)."""
        aig = self.aig
        key = (aig._version, aig._shape_version)
        cached = self._levels
        if cached is not None and cached[0] == key:
            self._hit()
            return cached[1]
        if (
            cached is not None
            and cached[0][1] == aig._shape_version
            and aig.num_vars > len(cached[1])
        ):
            # Append-only growth: existing levels are final (a node's
            # level depends only on earlier ids), compute the tail.
            col = aig._levelc
            size = len(cached[1])
            if col.size != size:
                # Column superseded (e.g. a second context on the same
                # AIG); realign it with this cache's snapshot.
                col.adopt(cached[1])
            num = aig.num_vars
            col.extend_zeros(num - size)
            vectorized = (
                num - size >= _VEC_EXTEND_MIN
                and _levels_tail_vec(aig, col, size, num)
            )
            if not vectorized:
                values = col.view
                fan0 = aig._fanin0
                fan1 = aig._fanin1
                dead = aig._dead
                for var in range(size, num):
                    f0 = fan0[var]
                    if f0 < 0 or dead[var]:
                        values[var] = 0
                        continue
                    l0 = values[f0 >> 1]
                    l1 = values[fan1[var] >> 1]
                    values[var] = (l0 if l0 >= l1 else l1) + 1
            levels = col.slice()
            self._levels = (key, levels)
            self._extend()
            return levels
        self._miss()
        aig._levelc.adopt(traversal.aig_levels(aig))
        levels = aig._levelc.slice()
        self._levels = (key, levels)
        return levels

    def depth(self) -> int:
        """AIG depth (max PO driver level); memoized over levels()."""
        aig = self.aig
        key = (aig._version, aig._shape_version, aig._po_version)
        cached = self._depth
        if cached is not None and cached[0] == key:
            self._hit()
            return cached[1]
        levels = self.levels()
        depth = 0
        for lit in aig._pos:
            level = levels[lit >> 1]
            if level > depth:
                depth = level
        self._depth = (key, depth)
        return depth

    def fanout_counts(self) -> list[int]:
        """PO-inclusive fanout edge counts (read-only)."""
        aig = self.aig
        key = (aig._version, aig._shape_version, aig._po_version)
        cached = self._fanout_counts
        if cached is not None and cached[0] == key:
            self._hit()
            return cached[1]
        if (
            cached is not None
            and cached[0][1] == aig._shape_version
            and cached[0][2] == aig._po_version
            and aig.num_vars > len(cached[1])
        ):
            # Append-only growth: new nodes add references to their
            # fanins; existing edges (and the PO references) stand.
            col = aig._nrefc
            size = len(cached[1])
            if col.size != size:
                col.adopt(cached[1])
            num = aig.num_vars
            col.extend_zeros(num - size)
            if num - size >= _VEC_EXTEND_MIN:
                _nref_tail_vec(aig, col, size, num)
            else:
                values = col.view
                fan0 = aig._fanin0
                fan1 = aig._fanin1
                dead = aig._dead
                for var in range(size, num):
                    if fan0[var] < 0 or dead[var]:
                        continue
                    values[fan0[var] >> 1] += 1
                    values[fan1[var] >> 1] += 1
            aig._ref_version += 1
            counts = col.slice()
            self._fanout_counts = (key, counts)
            self._extend()
            return counts
        self._miss()
        # Hand the column the ndarray itself — the list round-trip
        # would copy every count twice.
        aig._nrefc.adopt(traversal.fanout_counts_array(aig))
        aig._ref_version += 1
        counts = aig._nrefc.slice()
        self._fanout_counts = (key, counts)
        return counts

    def levels_array(self):
        """Int64 ndarray view of :meth:`levels` (column-native kernels).

        Fills the cache through :meth:`levels` (same hit/miss counters)
        and returns the level column's zero-copy ndarray view.
        """
        self.levels()
        return self.aig._levelc.nparray()

    def fanout_counts_array(self):
        """Int64 ndarray view of :meth:`fanout_counts` (kernels).

        Fills the cache through :meth:`fanout_counts` (same hit/miss
        counters) and returns the refcount column's zero-copy ndarray
        view.  Callers must treat the view as read-only, exactly like
        :meth:`fanout_counts`.
        """
        self.fanout_counts()
        return self.aig._nrefc.nparray()

    def fanout_lists(self) -> list[list[int]]:
        """Fanout adjacency, POs excluded (read-only, inner lists too)."""
        aig = self.aig
        key = (aig._version, aig._shape_version)
        cached = self._fanout_lists
        if cached is not None and cached[0] == key:
            self._hit()
            return cached[1]
        if (
            cached is not None
            and cached[0][1] == aig._shape_version
            and aig.num_vars > len(cached[1])
        ):
            fanouts = cached[1]
            size = len(fanouts)
            for _ in range(size, aig.num_vars):
                fanouts.append([])
            for var in range(size, aig.num_vars):
                if aig._fanin0[var] < 0 or aig._dead[var]:
                    continue
                v0 = aig._fanin0[var] >> 1
                v1 = aig._fanin1[var] >> 1
                fanouts[v0].append(var)
                if v1 != v0:
                    fanouts[v1].append(var)
            self._fanout_lists = (key, fanouts)
            self._extend()
            return fanouts
        self._miss()
        fanouts = traversal.fanout_lists(aig)
        self._fanout_lists = (key, fanouts)
        return fanouts

    def fanout_degrees(self):
        """Per-variable live-AND reader counts (int64 ndarray).

        ``degrees[v] == len(fanout_lists()[v])`` for every variable:
        POs excluded, a double edge (same node in both fanins) counts
        once.  The column-native collapse kernel consumes these instead
        of the Python adjacency lists — same derived state, same cache
        key, same hit/miss accounting, a bincount sweep instead of
        per-node list appends.  Read-only, like every derived value.
        """
        aig = self.aig
        key = (aig._version, aig._shape_version)
        cached = self._fanout_degrees
        if cached is not None and cached[0] == key:
            self._hit()
            return cached[1]
        self._miss()
        fan0, fan1, dead = aig.arrays()
        live = (fan0 >= 0) & ~dead
        v0 = fan0[live] >> 1
        v1 = fan1[live] >> 1
        degrees = np.bincount(v0, minlength=aig.num_vars)
        degrees = degrees + np.bincount(
            v1[v1 != v0], minlength=aig.num_vars
        )
        degrees = degrees.astype(np.int64, copy=False)
        self._fanout_degrees = (key, degrees)
        return degrees

    def po_fanout_mask(self) -> list[bool]:
        """PO driver mask (read-only)."""
        aig = self.aig
        key = (aig._version, aig._shape_version, aig._po_version)
        cached = self._po_mask
        if cached is not None and cached[0] == key:
            self._hit()
            return cached[1]
        self._miss()
        mask = traversal.po_fanout_mask(aig)
        self._po_mask = (key, mask)
        return mask

    def topological_order(self) -> list[int]:
        """Live AND variables in topological (= id) order (read-only)."""
        aig = self.aig
        key = (aig._version, aig._shape_version)
        cached = self._topo
        if cached is not None and cached[0] == key:
            self._hit()
            return cached[2]
        if (
            cached is not None
            and cached[0][1] == aig._shape_version
            and aig.num_vars > cached[1]
        ):
            # Append-only growth: live ANDs keep their relative order;
            # scan only the ids appended since the cached snapshot.
            order = cached[2]
            start = cached[1]
            if aig.num_vars - start >= _VEC_EXTEND_MIN:
                fan0, _, dead = aig.arrays()
                live = (fan0[start:] >= 0) & ~dead[start:]
                order.extend(
                    (np.flatnonzero(live) + start).tolist()
                )
            else:
                for var in range(start, aig.num_vars):
                    if aig._fanin0[var] >= 0 and not aig._dead[var]:
                        order.append(var)
            self._topo = (key, aig.num_vars, order)
            self._extend()
            return order
        self._miss()
        order = traversal.topological_order(aig)
        self._topo = (key, aig.num_vars, order)
        return order

    def arrays(self) -> tuple:
        """The AIG's NumPy view (delegates to the Aig-level cache)."""
        return self.aig.arrays()

    def fork(self, clone: "Aig") -> "GraphContext":
        """Context for ``clone`` seeded with copies of this cache.

        ``clone`` must be a fresh :meth:`~repro.aig.aig.Aig.clone` of
        this context's AIG (the version counters carry over, keeping
        the copied entries valid).  Values are copied — levels and
        refcounts into the clone's own columns, the inner fanout lists
        as fresh lists — so in-place extension on either side never
        leaks to the other.
        """
        forked = GraphContext(clone)
        if self._levels is not None:
            clone._levelc.adopt(self._levels[1])
            forked._levels = (self._levels[0], clone._levelc.slice())
        if self._fanout_counts is not None:
            clone._nrefc.adopt(self._fanout_counts[1])
            clone._ref_version += 1
            forked._fanout_counts = (
                self._fanout_counts[0], clone._nrefc.slice()
            )
        if self._fanout_degrees is not None:
            forked._fanout_degrees = (
                self._fanout_degrees[0],
                self._fanout_degrees[1].copy(),
            )
        if self._fanout_lists is not None:
            forked._fanout_lists = (
                self._fanout_lists[0],
                [list(entry) for entry in self._fanout_lists[1]],
            )
        if self._po_mask is not None:
            forked._po_mask = (self._po_mask[0], list(self._po_mask[1]))
        if self._topo is not None:
            forked._topo = (
                self._topo[0], self._topo[1], list(self._topo[2])
            )
        forked._depth = self._depth
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


def resolved_levels(
    aig: "Aig", alias: dict[int, int], resolve
) -> tuple[dict[int, int], list[int]]:
    """Levels and topological order of the alias-resolved live graph.

    Aliases may point *forward* (a replaced root redirects to a newer
    node id), so stored id order is not a topological order of the
    resolved graph; an explicit DFS from the resolved POs is required.
    ``resolve`` maps a literal through the alias chain.
    """
    levels: dict[int, int] = {0: 0}
    for var in aig.pis:
        levels[var] = 0
    order: list[int] = []
    for po_lit in aig.pos:
        root = lit_var(resolve(po_lit))
        if root in levels:
            continue
        stack = [root]
        while stack:
            var = stack[-1]
            if var in levels:
                stack.pop()
                continue
            f0, f1 = aig.fanins(var)
            pending = []
            for fanin in (f0, f1):
                fvar = lit_var(resolve(fanin))
                if fvar not in levels:
                    pending.append(fvar)
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            v0 = lit_var(resolve(f0))
            v1 = lit_var(resolve(f1))
            levels[var] = max(levels[v0], levels[v1]) + 1
            order.append(var)
    return levels, order


def resolved_fanout_counts(view) -> list[int]:
    """Reference counts over the alias-resolved live structure.

    ``view`` is an :class:`~repro.algorithms.common.AliasView` (duck
    typed to avoid the import cycle).
    """
    aig = view.aig
    counts = [0] * aig.num_vars
    for var in aig.and_vars():
        if var in view.dead or var in view.alias:
            continue
        f0, f1 = view.fanins(var)
        counts[lit_var(f0)] += 1
        counts[lit_var(f1)] += 1
    for lit in view.resolved_pos():
        counts[lit_var(lit)] += 1
    return counts
