"""Topological traversal, level and fanout computation for AIGs.

All functions work on live nodes only and exploit the id-order-is-
topological invariant of :class:`repro.aig.aig.Aig`, so every pass here
is a single linear scan — the same access pattern the paper's flat GPU
arrays are designed for.  Levels and fanout counts run on those arrays
at every graph size (wave-front propagation, ``np.bincount``); once
the level waves of a deep, narrow graph settle too few nodes each, a
scalar scan in id order finishes the levels the waves left open.

These are the *raw* recomputation primitives.  Passes read derived
state through :class:`repro.engine.context.GraphContext`, which
memoizes these results per AIG keyed on its mutation counters; the
cached values are exactly what these functions return.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.aig.aig import Aig
from repro.aig.literals import lit_var

#: Keep propagating waves while one settles at least 1/_WAVE_YIELD of
#: the nodes still waiting; below that, finish with the id-order scan.
#: On the ``b-xl`` input a wave costs ~6-9 ns per waiting node
#: (gathers, masks and compaction over the whole waiting set) and the
#: scan ~0.20 us per node it visits, so a wave pays for itself once it
#: settles about 1/23-1/35 of the waiting nodes.  The switch is
#: irrevocable and the yield of a wide graph rises as its waiting set
#: drains (``resyn2-wide``: 16% to 46% over its first six waves), so
#: the threshold sits below that break-even.  Deep graphs (``b-xl``,
#: ``rf_resyn-large``, ``rfc-deep``) settle 0.4-2% in their first wave
#: and go to the scan right after it.
_WAVE_YIELD = 46


def aig_levels(aig: Aig) -> list[int]:
    """Level (arrival time) of every variable.

    The level of a PI or constant is 0; the level of an AND node is one
    plus the maximum fanin level — the paper's "delay of a node".
    Dead nodes get level 0.
    """
    return aig_levels_array(aig).tolist()


def aig_levels_array(aig: Aig) -> np.ndarray:
    """:func:`aig_levels` as an int64 ndarray — no list round-trip.

    Wave-front propagation on the flat arrays: each wave assigns the
    level of every AND whose fanins are already levelled, one wave per
    level of the graph.  When a wave settles too few of the waiting
    nodes (:data:`_WAVE_YIELD`), the rest are finished by one scan in
    id order (ids are topological), keeping the levels already fixed.
    """
    f0, f1, dead = aig.arrays()
    levels = np.zeros(aig.num_vars, dtype=np.int64)
    active = np.flatnonzero((f0 >= 0) & ~dead)
    if active.size == 0:
        return levels
    v0 = f0[active] >> 1
    v1 = f1[active] >> 1
    # A var is "settled" once its final level is known: constants, PIs
    # and dead rows start settled at level 0.
    settled = (f0 < 0) | dead
    while True:
        ready = settled[v0] & settled[v1]
        wave = active[ready]
        levels[wave] = (
            np.maximum(levels[v0[ready]], levels[v1[ready]]) + 1
        )
        waiting = active.size
        if wave.size == waiting:
            if observe.enabled:
                observe.count("path.aig_levels.waves")
            return levels
        keep = ~ready
        active = active[keep]
        if wave.size * _WAVE_YIELD < waiting:
            break
        settled[wave] = True
        v0 = v0[keep]
        v1 = v1[keep]
    if observe.enabled:
        observe.count("path.aig_levels.scan")
    # Scan the unsettled rest in id order through memoryviews: every
    # fanin is either settled or an earlier row of this scan.
    lv = memoryview(levels)
    fan0 = aig._fanin0
    fan1 = aig._fanin1
    for var in memoryview(active):
        l0 = lv[fan0[var] >> 1]
        l1 = lv[fan1[var] >> 1]
        lv[var] = (l0 if l0 >= l1 else l1) + 1
    return levels


def aig_depth(aig: Aig) -> int:
    """The delay/level of the AIG: maximum PO driver level."""
    levels = memoryview(aig_levels_array(aig))
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


def po_fanout_mask(aig: Aig) -> list[bool]:
    """True for every variable directly driving at least one PO."""
    mask = [False] * aig.num_vars
    for lit in aig.pos:
        mask[lit_var(lit)] = True
    return mask
