"""Per-node graph walks the tests check production structures against.

Plain-Python scans over an :class:`~repro.aig.aig.Aig`: the fanout
adjacency (the oracle of ``GraphContext.fanout_degrees`` and of the
fanout-free conditions), the transitive fanin of a root set and the
logic cone of a root over a cut (which raises when the cut does not
cover every path, so it also checks that a cut is valid).
"""

from __future__ import annotations

from repro.aig.aig import Aig
from repro.aig.literals import lit_var


def fanout_lists(aig: Aig) -> list[list[int]]:
    """Fanout adjacency: for each variable, the AND variables reading it.

    PO fanouts are not included (use ``po_fanout_mask`` for those).
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


def cone_nodes(aig: Aig, root: int, cut: set[int]) -> set[int]:
    """AND variables of the logic cone of ``root`` w.r.t. ``cut``.

    The cone includes ``root`` and every node on a path from a cut node
    to ``root``; the cut nodes themselves are *not* part of the cone
    (they are its inputs), matching the paper's Definition of a logic
    cone associated with a cut.  Raises ``ValueError`` when a path
    from ``root`` reaches a PI or the constant without crossing the
    cut.
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
