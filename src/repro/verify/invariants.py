"""Structural invariant checking for pass results and mid-pass states.

:func:`check_invariants` is the post-pass checker the verify harness
and ``run_script`` call after every pass: it layers acyclicity (an
explicit DFS, independent of the id-order convention), level
consistency (forward sweep vs PO-side recursion must agree) and
dangling-reference detection on top of the structural checks of
:func:`repro.aig.validate.check_aig` (canonical fanin order, strashing
canonicity, PO liveness).

:func:`check_dedup_complete` and :func:`check_no_dead_refs` are
*pass-protocol* checks that run inside ``dedup_and_dangling`` while the
sanitizer is enabled.  They must run on the pre-compact graph:
``Aig.compact`` rebuilds through sharing-aware node creation, which
silently re-merges duplicates and re-creates wrongly-freed nodes, so a
skipped merge or an over-eager dangling removal is invisible in the
final result — exactly the class of bug the in-pass checks exist to
catch.
"""

from __future__ import annotations

from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_not_cond, lit_pair_key, lit_var
from repro.aig.validate import AigInvariantError, check_aig

__all__ = [
    "AigInvariantError",
    "InvariantError",
    "check_dedup_complete",
    "check_invariants",
    "check_no_dead_refs",
]


class InvariantError(AigInvariantError):
    """Raised when a verify-layer invariant is violated."""


def check_invariants(
    aig: Aig,
    strict_strash: bool = True,
    require_reachable: bool = False,
) -> dict[str, int]:
    """Full structural audit of ``aig``; returns summary statistics.

    ``require_reachable`` additionally demands every live AND node be
    reachable from some PO — true for every compacted pass result, not
    for hand-built graphs with intentionally dangling logic.
    """
    check_aig(aig, strict_strash=strict_strash)
    levels = _check_acyclic_levels(aig)
    reachable = _reachable_from_pos(aig)
    unreachable = sum(
        1
        for var in aig.and_vars()
        if not aig.is_dead(var) and var not in reachable
    )
    if require_reachable and unreachable:
        raise InvariantError(
            f"{unreachable} live AND node(s) unreachable from any PO"
        )
    depth = 0
    for lit in aig.pos:
        depth = max(depth, levels[lit_var(lit)])
    return {
        "ands": aig.num_ands,
        "depth": depth,
        "unreachable": unreachable,
    }


def _check_acyclic_levels(aig: Aig) -> list[int]:
    """Explicit-DFS acyclicity + level-consistency check.

    ``check_aig`` proves acyclicity through the id-order convention
    (every fanin id is smaller).  This walk re-derives levels by DFS
    from the POs with an on-stack marker — catching any cycle even if
    the id convention itself were broken — and cross-checks them
    against the forward id-order sweep.  Returns the level array.
    """
    forward = [0] * aig.num_vars
    for var in aig.all_and_vars():
        f0, f1 = aig.fanins(var)
        forward[var] = max(forward[lit_var(f0)], forward[lit_var(f1)]) + 1

    # Three-color DFS from the POs: WHITE (0) unvisited, GRAY (1) on
    # the current path, BLACK (2) finished.  A GRAY fanin is a true
    # back edge (ancestor on the path) — a cycle; diamonds only ever
    # meet BLACK or WHITE nodes.
    levels = [-1] * aig.num_vars
    color = [0] * aig.num_vars
    for var in aig.pis:
        levels[var] = 0
        color[var] = 2
    if aig.num_vars:
        levels[0] = 0
        color[0] = 2
    for po_lit in aig.pos:
        root = lit_var(po_lit)
        if color[root] == 2:
            continue
        stack = [root]
        while stack:
            var = stack[-1]
            if color[var] == 0:
                color[var] = 1
                for fanin in aig.fanins(var):
                    fvar = lit_var(fanin)
                    if color[fvar] == 1:
                        raise InvariantError(
                            f"cycle through node {fvar} (reached again "
                            f"from node {var})"
                        )
                    if color[fvar] == 0:
                        stack.append(fvar)
                continue
            stack.pop()
            if color[var] == 1:
                f0, f1 = aig.fanins(var)
                levels[var] = (
                    max(levels[lit_var(f0)], levels[lit_var(f1)]) + 1
                )
                color[var] = 2
    for var in range(aig.num_vars):
        if levels[var] >= 0 and levels[var] != forward[var]:
            raise InvariantError(
                f"level mismatch at node {var}: forward sweep says "
                f"{forward[var]}, PO-side DFS says {levels[var]}"
            )
        if levels[var] < 0:
            levels[var] = forward[var]
    return levels


def _reachable_from_pos(aig: Aig) -> set[int]:
    reachable: set[int] = set()
    stack = [lit_var(lit) for lit in aig.pos]
    while stack:
        var = stack.pop()
        if var in reachable or not aig.is_and(var):
            continue
        reachable.add(var)
        f0, f1 = aig.fanins(var)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return reachable


# ----------------------------------------------------------------------
# In-pass protocol checks (pre-compact graph, alias-resolved view)
# ----------------------------------------------------------------------


def check_dedup_complete(aig: Aig, alias: dict[int, int], resolve) -> None:
    """After the dedup sweep, live unaliased nodes are key-unique.

    Section III-F's claim: once every level has been processed, no two
    live non-redirected nodes share an alias-resolved fanin key, and no
    trivially-foldable node survives.  A dropped loser redirection
    (skipped merge) breaks exactly this.
    """
    seen: dict[tuple[int, int], int] = {}
    for var in aig.and_vars():
        if aig.is_dead(var) or var in alias:
            continue
        f0, f1 = aig.fanins(var)
        key = lit_pair_key(resolve(f0), resolve(f1))
        if key[0] <= 1 or key[0] == key[1] or key[0] == (key[1] ^ 1):
            raise InvariantError(
                f"dedup incomplete: node {var} still trivially "
                f"foldable on resolved key {key}"
            )
        prior = seen.get(key)
        if prior is not None:
            raise InvariantError(
                f"dedup incomplete: live nodes {prior} and {var} share "
                f"resolved key {key}"
            )
        seen[key] = var


def check_no_dead_refs(aig: Aig, alias: dict[int, int], resolve) -> None:
    """No live node or PO resolves to a dead, non-redirected node.

    Dangling removal may only retire cones with zero live fanout; a
    wrongly-freed node leaves a live reader (or PO) pointing at a dead
    variable with no alias to follow.
    """
    for var in aig.and_vars():
        if aig.is_dead(var) or var in alias:
            continue
        for fanin in aig.fanins(var):
            rvar = lit_var(resolve(fanin))
            if aig.is_and(rvar) and aig.is_dead(rvar) and rvar not in alias:
                raise InvariantError(
                    f"live node {var} resolves fanin to dead node {rvar}"
                )
    for index, po_lit in enumerate(aig.pos):
        rvar = lit_var(resolve(po_lit))
        if aig.is_and(rvar) and aig.is_dead(rvar) and rvar not in alias:
            raise InvariantError(
                f"PO {index} resolves to dead node {rvar}"
            )


def _resolve_with(alias: dict[int, int]):
    """Alias-chasing literal resolver (dedup's ``resolve`` contract)."""

    def resolve(lit: int) -> int:
        while (lit >> 1) in alias:
            lit = lit_not_cond(alias[lit >> 1], lit_compl(lit))
        return lit

    return resolve
