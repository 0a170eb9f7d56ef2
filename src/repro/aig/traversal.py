"""Topological traversal, level and fanout computation for AIGs.

All functions work on live nodes only and exploit the id-order-is-
topological invariant of :class:`repro.aig.aig.Aig`, so every pass here
is a single linear scan — the same access pattern the paper's flat GPU
arrays are designed for.  Levels and fanout counts run on those arrays
at every graph size (wave-front propagation, ``np.bincount``); only a
graph deeper than :data:`_VEC_MAX_WAVES` levels falls back to the
scalar level scan.

These are the *raw* recomputation primitives.  Passes read derived
state through :class:`repro.engine.context.GraphContext`, which
memoizes these results per AIG keyed on its mutation counters; the
cached values are exactly what these functions return.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import Aig
from repro.aig.literals import lit_var

#: Wave cap for the vectorized level propagation: deep, narrow graphs
#: (many waves, few nodes each) are faster on the scalar scan, so the
#: array path bails out and restarts scalar instead of crawling.
_VEC_MAX_WAVES = 96


def aig_levels(aig: Aig) -> list[int]:
    """Level (arrival time) of every variable.

    The level of a PI or constant is 0; the level of an AND node is one
    plus the maximum fanin level — the paper's "delay of a node".
    Dead nodes get level 0.
    """
    levels = _aig_levels_vec(aig)
    if levels is not None:
        return levels
    levels = [0] * aig.num_vars
    fan0 = aig._fanin0
    fan1 = aig._fanin1
    dead = aig._dead
    for var in range(aig.num_vars):
        f0 = fan0[var]
        if f0 < 0 or dead[var]:
            continue
        l0 = levels[f0 >> 1]
        l1 = levels[fan1[var] >> 1]
        levels[var] = (l0 if l0 >= l1 else l1) + 1
    return levels


def _aig_levels_vec(aig: Aig) -> list[int] | None:
    """Wave-front level propagation on the flat arrays.

    Each wave assigns the level of every AND whose fanins are already
    levelled — one wave per level of the graph.  Returns None when the
    graph turns out to be deeper than :data:`_VEC_MAX_WAVES` (the
    scalar linear scan is faster there).
    """
    f0, f1, dead = aig.arrays()
    levels = np.zeros(aig.num_vars, dtype=np.int64)
    active = np.flatnonzero((f0 >= 0) & ~dead)
    if active.size == 0:
        return levels.tolist()
    v0 = f0[active] >> 1
    v1 = f1[active] >> 1
    # A var is "settled" once its final level is known: constants, PIs
    # and dead rows start settled at level 0.
    settled = (f0 < 0) | dead
    for _ in range(_VEC_MAX_WAVES):
        ready = settled[v0] & settled[v1]
        wave = active[ready]
        levels[wave] = (
            np.maximum(levels[v0[ready]], levels[v1[ready]]) + 1
        )
        settled[wave] = True
        keep = ~ready
        active = active[keep]
        if active.size == 0:
            return levels.tolist()
        v0 = v0[keep]
        v1 = v1[keep]
    return None


def aig_depth(aig: Aig) -> int:
    """The delay/level of the AIG: maximum PO driver level."""
    levels = aig_levels(aig)
    depth = 0
    for lit in aig.pos:
        level = levels[lit_var(lit)]
        if level > depth:
            depth = level
    return depth


def fanout_counts(aig: Aig) -> list[int]:
    """Number of fanout edges of every variable (POs included).

    A node feeding both fanins of one AND counts twice, matching ABC's
    reference counting; this is the count MFFC dereferencing relies on.
    """
    return fanout_counts_array(aig).tolist()


def fanout_counts_array(aig: Aig):
    """:func:`fanout_counts` as an int64 ndarray — no list round-trip.

    The column-native kernels and the derived-state cache consume
    this directly.
    """
    f0, f1, dead = aig.arrays()
    live = (f0 >= 0) & ~dead
    counts = np.bincount(
        np.concatenate((f0[live] >> 1, f1[live] >> 1)),
        minlength=aig.num_vars,
    ).astype(np.int64, copy=False)
    for lit in aig.pos:
        counts[lit >> 1] += 1
    return counts


def fanout_lists(aig: Aig) -> list[list[int]]:
    """Fanout adjacency: for each variable, the AND variables reading it.

    PO fanouts are not included (use :func:`po_fanout_mask` for those).
    A double edge (same node in both fanins) appears once.
    """
    fanouts: list[list[int]] = [[] for _ in range(aig.num_vars)]
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        v0, v1 = lit_var(f0), lit_var(f1)
        fanouts[v0].append(var)
        if v1 != v0:
            fanouts[v1].append(var)
    return fanouts


def po_fanout_mask(aig: Aig) -> list[bool]:
    """True for every variable directly driving at least one PO."""
    mask = [False] * aig.num_vars
    for lit in aig.pos:
        mask[lit_var(lit)] = True
    return mask


def topological_order(aig: Aig) -> list[int]:
    """Live AND variables in topological order (fanins first)."""
    return list(aig.and_vars())


def reverse_topological_order(aig: Aig) -> list[int]:
    """Live AND variables in reverse topological order (fanouts first)."""
    order = list(aig.and_vars())
    order.reverse()
    return order


def transitive_fanin(aig: Aig, roots: list[int]) -> set[int]:
    """All variables in the transitive fanin of ``roots`` (inclusive)."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        if aig.is_and(var):
            f0, f1 = aig.fanins(var)
            stack.append(lit_var(f0))
            stack.append(lit_var(f1))
    return seen


def transitive_fanout(aig: Aig, roots: list[int]) -> set[int]:
    """All variables in the transitive fanout of ``roots`` (inclusive)."""
    in_tfo = [False] * aig.num_vars
    root_set = set(roots)
    for var in root_set:
        in_tfo[var] = True
    for var in aig.and_vars():
        if in_tfo[var]:
            continue
        f0, f1 = aig.fanins(var)
        if in_tfo[lit_var(f0)] or in_tfo[lit_var(f1)]:
            in_tfo[var] = True
    return {var for var, flag in enumerate(in_tfo) if flag}


def cone_nodes(aig: Aig, root: int, cut: set[int]) -> set[int]:
    """AND variables of the logic cone of ``root`` w.r.t. ``cut``.

    The cone includes ``root`` and every node on a path from a cut node
    to ``root``; the cut nodes themselves are *not* part of the cone
    (they are its inputs), matching the paper's Definition of a logic
    cone associated with a cut.
    """
    cone: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in cone or var in cut:
            continue
        if not aig.is_and(var):
            raise ValueError(
                f"cut {sorted(cut)} does not cover PI/const var {var}"
            )
        cone.add(var)
        f0, f1 = aig.fanins(var)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return cone
