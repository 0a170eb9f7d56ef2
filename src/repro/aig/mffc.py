"""Maximum fanout-free cone (MFFC) computation.

The MFFC of a node is the set of nodes that become dangling when the
node is deleted — "all logic dedicated to drive the node" (paper,
Section III-A).  It is computed by ABC-style reference-count
dereferencing: walking down from the root, decrementing fanin reference
counts, and recursing into fanins whose count reaches zero.

Property 2 of the paper (MFFCs of different nodes are laminar: nested
or disjoint) is exercised by the property-test suite against this
implementation.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import Aig
from repro.aig.literals import lit_var
from repro.aig.traversal import fanout_counts

#: Mutable reference-count storage accepted by every walk here: a plain
#: list or a cached NumPy array (the int64 ndarray from
#: ``GraphContext.fanout_counts_array`` or its memoryview twin from
#: ``GraphContext.fanout_counts``) — anything indexable with in-place
#: integer updates.
#: Walks mutate counts element-wise, so nothing is copied into a list.
RefCounts = list[int] | np.ndarray | memoryview


def mffc_nodes(aig: Aig, root: int, nref: RefCounts | None = None) -> set[int]:
    """AND variables in the MFFC of ``root`` (the root included).

    Parameters
    ----------
    nref:
        Current reference (fanout) counts; computed fresh when omitted.
        The storage is modified during the walk and restored before
        returning, so callers may share one buffer across many queries.
    """
    if not aig.is_and(root):
        raise ValueError(f"MFFC is defined for AND nodes, got var {root}")
    if nref is None:
        nref = fanout_counts(aig)
    cone = _deref(aig, root, nref)
    _ref(aig, root, nref, cone)
    return cone


def mffc_size(aig: Aig, root: int, nref: RefCounts | None = None) -> int:
    """Number of AND nodes in the MFFC of ``root``."""
    return len(mffc_nodes(aig, root, nref))


def _deref(aig: Aig, root: int, nref: RefCounts) -> set[int]:
    """Dereference the cone below ``root``; returns the collected MFFC."""
    cone: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in cone:
            continue
        cone.add(var)
        for fanin in aig.fanins(var):
            fvar = lit_var(fanin)
            nref[fvar] -= 1
            if nref[fvar] == 0 and aig.is_and(fvar):
                stack.append(fvar)
    return cone


def _ref(aig: Aig, root: int, nref: RefCounts, cone: set[int]) -> None:
    """Undo :func:`_deref` for the exact node set it collected."""
    for var in cone:
        for fanin in aig.fanins(var):
            nref[lit_var(fanin)] += 1


def deref_mffc(aig: Aig, root: int, nref: RefCounts) -> set[int]:
    """Dereference the MFFC of ``root`` *without* restoring counts.

    Used by in-place replacement: after dereferencing, the returned
    nodes are genuinely unreferenced and may be deleted.  The caller is
    responsible for re-referencing (via :func:`ref_cone`) if the
    replacement is abandoned.
    """
    return _deref(aig, root, nref)


def ref_cone(aig: Aig, root: int, nref: RefCounts, cone: set[int]) -> None:
    """Re-reference a cone previously removed by :func:`deref_mffc`."""
    _ref(aig, root, nref, cone)
