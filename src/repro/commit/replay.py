"""Scalar replay commit: one cone replacement at a time.

This is the sequential half of the transactional layer: the commit
discipline the seq passes (and the serial lanes of the parallel
passes) use to land one replacement on an
:class:`~repro.algorithms.common.AliasView` — dereference the
cone-restricted MFFC, kill it, build the replacement through the
strash, and either commit (transfer references, alias the root) or
roll back bit-exactly (truncate the speculative nodes, revive and
re-reference the cone).

:func:`deref_cone` / :func:`ref_cone_back` are the reference-count
halves of that transaction; :func:`apply_replacement` is the gated
commit (gain / same-root / level-cap rejection with full rollback) and
:func:`commit_replacement` the unconditional variant for callers that
prove profitability before touching the graph (resubstitution).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import observe
from repro.aig.literals import lit_var
from repro.aig.mffc import RefCounts
from repro.verify import mutations

__all__ = [
    "apply_replacement",
    "commit_replacement",
    "deref_cone",
    "ref_cone_back",
    "retire_unreachable",
]


def deref_cone(view, root: int, cone: set[int], nref: RefCounts) -> set[int]:
    """Dereference the MFFC of ``root`` restricted to ``cone``.

    Walks down from the root decrementing fanin reference counts,
    recursing only into cone members whose count reaches zero — the
    nodes that become unreferenced once the root's function is
    re-implemented over the cone's cut.  Returns the dereferenced set
    (the root included).  Shared by refactoring and rewriting.
    """
    deleted: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in deleted:
            continue
        deleted.add(var)
        for fanin in view.fanins(var):
            fvar = lit_var(fanin)
            nref[fvar] -= 1
            if nref[fvar] == 0 and fvar in cone:
                stack.append(fvar)
    return deleted


def ref_cone_back(view, deleted: set[int], nref: RefCounts) -> None:
    """Undo :func:`deref_cone` for the exact node set it collected."""
    for var in deleted:
        for fanin in view.fanins(var):
            nref[lit_var(fanin)] += 1


def retire_unreachable(view, levels) -> None:
    """Kill every AND of ``view`` that the resolved DFS did not reach.

    ``levels`` is :func:`repro.engine.context.resolved_levels`'s array:
    a variable is reachable exactly when its level is non-negative.
    Pre-replay cleanup for serial lanes working on a post-wave graph: a
    strash hit on an unreachable survivor would dodge the level caps,
    and compaction drops those nodes anyway.
    """
    fan0, _, _ = view.aig.arrays()
    dead = view.dead
    for var in np.flatnonzero((fan0 >= 0) & (levels < 0)).tolist():
        if var not in dead:
            view.kill(var)


def apply_replacement(
    view,
    nref: RefCounts,
    root: int,
    deleted: set[int],
    build: Callable[[Callable[[int, int], int]], int],
    min_gain: int,
    *,
    level_cap: dict[int, int] | None = None,
    flip_mutation: str | None = None,
) -> tuple[int | None, int]:
    """Build one replacement and commit it if the gates pass.

    ``deleted`` is the already-dereferenced cone
    (:func:`deref_cone`'s result); ``build`` receives the graph's
    ``add_and`` and returns the new root literal.  Returns
    ``(gain_or_None, created)`` — ``None`` means the transaction rolled
    back (nodes truncated, cone revived and re-referenced), leaving the
    graph bit-identical to before the call.

    Gates: ``gain < min_gain``, the new root resolving to the old root,
    and — when ``level_cap`` is given — the new root's cap exceeding
    the old root's.  Created nodes record their own caps in place; a
    rejected attempt's stale entries are overwritten when the ids are
    reused.

    ``flip_mutation`` names the pass's seeded root-polarity bug; the
    layer's own ``commit-replay-flip-root`` mutation flips here too, so
    the CEC gate exercises the shared replay path directly.
    """
    aig = view.aig
    for var in deleted:
        view.kill(var)

    snapshot = aig.num_vars
    new_root = build(aig.add_and)
    created = aig.num_vars - snapshot
    gain = len(deleted) - created

    too_deep = False
    if level_cap is not None:
        # Created ids are contiguous and topological, so one ascending
        # sweep fills their caps.
        for var in range(snapshot, aig.num_vars):
            f0, f1 = aig.fanins(var)
            level_cap[var] = 1 + max(
                level_cap[lit_var(f0)], level_cap[lit_var(f1)]
            )
        too_deep = level_cap[new_root >> 1] > level_cap[root]

    if gain < min_gain or (new_root >> 1) == root or too_deep:
        # Reject: retire the speculative nodes, revive the dereferenced
        # cone and restore its reference counts.
        aig.truncate(snapshot)
        for var in deleted:
            view.revive(var)
        ref_cone_back(view, deleted, nref)
        return None, created

    # Commit: account references of the new nodes, transfer the root's.
    while len(nref) < aig.num_vars:
        nref.append(0)
    for var in range(snapshot, aig.num_vars):
        f0, f1 = aig.fanins(var)
        nref[lit_var(f0)] += 1
        nref[lit_var(f1)] += 1
    if mutations.armed:
        if flip_mutation is not None and mutations.active(flip_mutation):
            new_root ^= 1
        if mutations.active("commit-replay-flip-root"):
            new_root ^= 1
    new_root_var = new_root >> 1
    nref[new_root_var] += nref[root]
    nref[root] = 0
    view.set_alias(root, new_root)
    if observe.enabled:
        observe.count("commit.plans")
        observe.count("commit.serial_replays", created)
    return gain, created


def commit_replacement(
    view,
    nref: RefCounts,
    root: int,
    removed: set[int],
    build: Callable[[Callable[[int, int], int]], int],
) -> int:
    """Unconditionally land one replacement (no gates, no rollback).

    For callers that establish profitability *before* mutating the
    graph (resubstitution checks its exact gain against the nominal
    new-node cost first): kill ``removed``, build the new root, account
    references, transfer the old root's count and alias it.  Returns
    the new root literal.
    """
    aig = view.aig
    for var in removed:
        view.kill(var)
    snapshot = aig.num_vars
    new_root = build(aig.add_and)
    created = aig.num_vars - snapshot
    while len(nref) < aig.num_vars:
        nref.append(0)
    for var in range(snapshot, aig.num_vars):
        f0, f1 = aig.fanins(var)
        nref[lit_var(f0)] += 1
        nref[lit_var(f1)] += 1
    nref[new_root >> 1] += nref[root]
    nref[root] = 0
    view.set_alias(root, new_root)
    if observe.enabled:
        observe.count("commit.plans")
        observe.count("commit.serial_replays", created)
    return new_root
