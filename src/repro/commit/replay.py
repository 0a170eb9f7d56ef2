"""Scalar replay commit: one cone replacement at a time.

This is the sequential half of the transactional layer: the commit
discipline the seq passes (and the serial lanes of the parallel
passes) use to land one replacement on an
:class:`~repro.algorithms.common.AliasView` — dereference the
cone-restricted MFFC, kill it, build the replacement through the
strash, and either commit (transfer references, alias the root) or
roll back bit-exactly (truncate the speculative nodes, revive and
re-reference the cone).  Kills and revivals go straight to the graph
(:meth:`~repro.aig.aig.Aig.mark_dead` / :meth:`~repro.aig.aig.Aig.revive`,
one node at a time), and the walks read its dead column: the view
keeps no kill record of its own.

:func:`deref_cone` / :func:`ref_cone_back` are the reference-count
halves of that transaction.  :func:`walk_cone` collects each cone
member's resolved fanin pair and the root's truth table in one DFS,
and :func:`deref_walked` dereferences from those pairs.
:func:`apply_replacement` is the gated commit (gain / same-root /
level-cap rejection with full rollback).

:func:`replay_rewrites` is parallel rewriting's whole keep/delete
replay as one fused loop: the same walk, dereference, kills, template
build, gates and commit, run inline on the graph's columns and a plain
alias dict instead of through the per-candidate calls above.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import observe
from repro.aig.literals import lit_var
from repro.aig.mffc import RefCounts
from repro.commit.plan import Footprint
from repro.logic.truth import full_mask, var_table
from repro.verify import mutations, sanitizer

__all__ = [
    "apply_replacement",
    "deref_cone",
    "deref_walked",
    "ref_cone_back",
    "replay_rewrites",
    "retire_unreachable",
    "walk_cone",
]


#: Cone members past which a rewriting cut counts as blown up (stale).
MAX_CONE_MEMBERS = 64


def walk_cone(
    view, root: int, leaves: list[int]
) -> tuple[dict[int, tuple[int, int]], int]:
    """One resolved DFS over the cone of ``root`` down to ``leaves``.

    Returns ``(cone, table)``: ``cone`` maps every cone member (the
    root included) to its alias-resolved fanin pair, and ``table`` is
    the root's truth table with ``leaves[i]`` as input ``i`` — what
    :func:`~repro.logic.truth.simulate_cone` computes.  A root among
    the leaves has an empty cone.

    Raises ``ValueError`` when the walk reaches a variable that is
    neither a leaf nor a live AND of the view (the constant var 0
    included: raw ANDs may keep constant fanins, and such a cone is
    stale), or when the cone passes :data:`MAX_CONE_MEMBERS` members.
    """
    num_leaves = len(leaves)
    mask = full_mask(num_leaves)
    tables = {
        leaf: var_table(position, num_leaves)
        for position, leaf in enumerate(leaves)
    }
    cone: dict[int, tuple[int, int]] = {}
    # The column buffers' scalar twins: the hot loop indexes them
    # directly instead of calling ``Aig.fanins``.
    fan0 = view.aig._f0c.view
    fan1 = view.aig._f1c.view
    alias = view.alias
    dead = view.aig._deadc.view
    stack = [root]
    while stack:
        var = stack[-1]
        if var in tables:
            stack.pop()
            continue
        pair = cone.get(var)
        if pair is None:
            f0 = fan0[var]
            if f0 < 0 or dead[var]:  # constant, PI or killed AND
                raise ValueError(f"cut does not cover var {var}")
            f1 = fan1[var]
            if f0 >> 1 in alias:
                f0 = view.resolve(f0)
            if f1 >> 1 in alias:
                f1 = view.resolve(f1)
            cone[var] = (f0, f1)
            if len(cone) > MAX_CONE_MEMBERS:
                raise ValueError("cone blow-up: stale cut")
        else:
            f0, f1 = pair
        t0 = tables.get(f0 >> 1)
        t1 = tables.get(f1 >> 1)
        if t0 is None or t1 is None:
            if t0 is None:
                stack.append(f0 >> 1)
            if t1 is None:
                stack.append(f1 >> 1)
            continue
        stack.pop()
        if f0 & 1:
            t0 ^= mask
        if f1 & 1:
            t1 ^= mask
        tables[var] = t0 & t1
    return cone, tables[root]


def deref_cone(view, root: int, cone: set[int], nref: RefCounts) -> set[int]:
    """Dereference the MFFC of ``root`` restricted to ``cone``.

    Walks down from the root decrementing fanin reference counts,
    recursing only into cone members whose count reaches zero — the
    nodes that become unreferenced once the root's function is
    re-implemented over the cone's cut.  Returns the dereferenced set
    (the root included).  Shared by refactoring and rewriting.
    """
    return _deref(view.fanins, root, cone, nref)


def deref_walked(
    cone: dict[int, tuple[int, int]], root: int, nref: RefCounts
) -> set[int]:
    """:func:`deref_cone` over :func:`walk_cone`'s collected pairs.

    Valid while the view is unchanged since the walk: the pairs are
    then exactly what ``view.fanins`` returns, so the dereferenced set
    and its iteration order are the same.
    """
    return _deref(cone.__getitem__, root, cone, nref)


def _deref(fanins, root: int, cone, nref: RefCounts) -> set[int]:
    deleted: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in deleted:
            continue
        deleted.add(var)
        for fanin in fanins(var):
            fvar = fanin >> 1
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
    aig = view.aig
    fan0, _, dead = aig.arrays()
    unreached = (fan0 >= 0) & (levels < 0) & ~dead
    for var in np.flatnonzero(unreached).tolist():
        aig.mark_dead(var)


def apply_replacement(
    view,
    nref: RefCounts,
    root: int,
    deleted: set[int],
    build: Callable[[Callable[[int, int], int]], int],
    min_gain: int,
    *,
    level_cap: dict[int, int] | None = None,
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

    The layer's seeded ``commit-replay-flip-root`` bug flips the new
    root here, so the CEC gate exercises the shared replay path
    directly.
    """
    aig = view.aig
    for var in deleted:
        aig.mark_dead(var)

    snapshot = aig.num_vars
    new_root = build(aig.add_and)
    end = aig.num_vars
    created = end - snapshot
    gain = len(deleted) - created

    too_deep = False
    if level_cap is not None:
        # Created ids are contiguous and topological, so one ascending
        # sweep fills their caps.
        for var in range(snapshot, end):
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
            aig.revive(var)
        ref_cone_back(view, deleted, nref)
        return None, created

    # Commit: account references of the new nodes, transfer the root's.
    _ref_created(aig, nref, snapshot)
    if mutations.armed and mutations.active("commit-replay-flip-root"):
        new_root ^= 1
    new_root_var = new_root >> 1
    nref[new_root_var] += nref[root]
    nref[root] = 0
    view.set_alias(root, new_root)
    if observe.enabled:
        observe.count("commit.plans")
        observe.count("commit.serial_replays", created)
    return gain, created


def _ref_created(aig, nref: RefCounts, snapshot: int) -> None:
    """Grow ``nref`` to the graph; count the created nodes' fanins."""
    end = aig.num_vars
    nref.extend([0] * (end - len(nref)))
    for var in range(snapshot, end):
        f0, f1 = aig.fanins(var)
        nref[f0 >> 1] += 1
        nref[f1 >> 1] += 1


def replay_rewrites(
    aig,
    candidates: dict[int, tuple],
    nref: list[int],
    min_gain: int,
    match: Callable[[int, int], tuple],
    guard,
) -> tuple[dict[int, int], list[int], int]:
    """Rewriting's keep/delete replay over ``candidates``, fused.

    Visits the roots ascending and, for each, does inline what
    resolving its cut's leaves, :func:`walk_cone`, a re-match,
    :func:`deref_walked` and :func:`apply_replacement` (with the
    template built through ``Aig.add_and``) do one call at a time: the
    same ``add_and`` order, node ids, strash slots and tombstones,
    ``_version`` and live count, ``nref`` updates and alias insertion
    order (``tests/pass_reference.py::reference_replace_stage`` is that
    chain).  A rejected candidate rolls back through ``Aig.truncate``
    / ``Aig.revive``, leaving the graph bit-identical.

    ``candidates[root][0]`` is the root's cut; ``nref`` the resolved
    reference counts, grown in place; ``match(table, width)`` the
    :data:`~repro.algorithms.rewrite_lib.ReplayProgram` of a cut
    function (passed in: the commit layer does not import the
    library), asked once per distinct ``(table, width)``; ``guard``
    the sanitizer batch every commit's deleted cone registers on.
    Returns ``(alias map, per-commit insertion works, host work)``,
    the host work charging 1 / 2 / 4 units for a candidate skipped
    at the root / leaf / walk check and ``|deleted| + 4`` for one
    evaluated.
    """
    alias: dict[int, int] = {}
    get_alias = alias.get
    insert_works: list[int] = []
    host_work = 0
    programs: dict[tuple[int, int], tuple] = {}
    projections: dict[int, tuple[int, list[int]]] = {}
    # The column objects, not their views: appends may regrow the
    # buffers, so each candidate reads the views afresh.
    fan0c, fan1c, deadc = aig._f0c, aig._f1c, aig._deadc
    strash = aig._strash
    find = strash._find
    release = strash.delete_entry

    for root in sorted(candidates):
        fan0 = fan0c.view
        fan1 = fan1c.view
        dead = deadc.view
        if fan0[root] < 0 or dead[root] or root in alias or nref[root] == 0:
            host_work += 1
            continue
        leaves: list[int] = []
        stale = False
        for var in candidates[root][0]:
            target = get_alias(var)
            while target is not None:
                var = target >> 1
                target = get_alias(var)
            if dead[var]:
                stale = True
                break
            if var not in leaves:
                leaves.append(var)
        if stale or len(leaves) < 2 or root in leaves:
            host_work += 2
            continue
        leaves.sort()
        width = len(leaves)

        # walk_cone: resolved fanin pairs and the root's truth table.
        basis = projections.get(width)
        if basis is None:
            basis = projections[width] = (
                full_mask(width),
                [var_table(position, width) for position in range(width)],
            )
        mask = basis[0]
        tables = dict(zip(leaves, basis[1]))
        cone: dict[int, tuple[int, int]] = {}
        escaped = False
        stack = [root]
        while stack:
            var = stack[-1]
            if var in tables:
                stack.pop()
                continue
            pair = cone.get(var)
            if pair is None:
                f0 = fan0[var]
                if f0 < 0 or dead[var]:  # constant, PI or killed AND
                    escaped = True
                    break
                f1 = fan1[var]
                target = get_alias(f0 >> 1)
                while target is not None:
                    f0 = target ^ (f0 & 1)
                    target = get_alias(f0 >> 1)
                target = get_alias(f1 >> 1)
                while target is not None:
                    f1 = target ^ (f1 & 1)
                    target = get_alias(f1 >> 1)
                cone[var] = (f0, f1)
                if len(cone) > MAX_CONE_MEMBERS:
                    escaped = True
                    break
            else:
                f0, f1 = pair
            t0 = tables.get(f0 >> 1)
            t1 = tables.get(f1 >> 1)
            if t0 is None or t1 is None:
                if t0 is None:
                    stack.append(f0 >> 1)
                if t1 is None:
                    stack.append(f1 >> 1)
                continue
            stack.pop()
            if f0 & 1:
                t0 ^= mask
            if f1 & 1:
                t1 ^= mask
            tables[var] = t0 & t1
        if escaped:
            host_work += 4
            continue
        # Re-match when resolution changed the cut's function.
        key = (tables[root], width)
        program = programs.get(key)
        if program is None:
            program = programs[key] = match(*key)
        sources, steps, out_slot, out_flip = program

        # deref_walked, from the collected pairs.
        deleted: set[int] = set()
        stack = [root]
        while stack:
            var = stack.pop()
            if var in deleted:
                continue
            deleted.add(var)
            f0, f1 = cone[var]
            f0 >>= 1
            nref[f0] -= 1
            if nref[f0] == 0 and f0 in cone:
                stack.append(f0)
            f1 >>= 1
            nref[f1] -= 1
            if nref[f1] == 0 and f1 in cone:
                stack.append(f1)

        # Aig.mark_dead per member: every member is a live AND.
        for var in deleted:
            dead[var] = True
            lit0 = fan0[var]
            lit1 = fan1[var]
            if lit0 > lit1:
                lit0, lit1 = lit1, lit0
            release(lit0, lit1, var)
        killed = len(deleted)
        aig._version += killed
        aig._live_ands -= killed

        # The template's Aig.add_and steps over the leaf literals.
        snapshot = fan0c.size
        lits = [0]
        for position, flip in sources:
            lits.append((leaves[position] << 1) ^ flip)
        for slot0, compl0, slot1, compl1 in steps:
            lit0 = lits[slot0] ^ compl0
            lit1 = lits[slot1] ^ compl1
            if lit0 > lit1:
                lit0, lit1 = lit1, lit0
            if lit0 < 2:  # constant fanin: false, or the other literal
                lits.append(lit1 if lit0 else 0)
                continue
            if lit0 == lit1:
                lits.append(lit0)
                continue
            if lit0 == lit1 ^ 1:
                lits.append(0)
                continue
            # A live key match is reused; a dead one is rebound.
            slot, free = find(lit0, lit1)
            if slot >= 0:
                existing = strash._value[slot]
                if not deadc.view[existing]:
                    lits.append(existing << 1)
                    continue
            var = fan0c.size
            fan0c.append(lit0)
            fan1c.append(lit1)
            deadc.append(False)
            if slot >= 0:
                strash._value[slot] = var
            else:
                strash._insert(free, lit0, lit1, var)
            lits.append(var << 1)
        new_root = lits[out_slot] ^ out_flip
        end = fan0c.size
        created = end - snapshot
        aig._version += created
        aig._live_ands += created
        host_work += killed + 4

        if killed - created < min_gain or new_root >> 1 == root:
            # Reject: retire the speculative nodes, revive the cone and
            # restore its reference counts.
            aig.truncate(snapshot)
            for var in deleted:
                aig.revive(var)
            for var in deleted:
                f0, f1 = cone[var]
                nref[f0 >> 1] += 1
                nref[f1 >> 1] += 1
            continue

        # Commit: reference the new nodes, transfer the root's count.
        nref.extend([0] * (end - len(nref)))
        fan0 = fan0c.view
        fan1 = fan1c.view
        for var in range(snapshot, end):
            nref[fan0[var] >> 1] += 1
            nref[fan1[var] >> 1] += 1
        if mutations.armed:
            if mutations.active("rw-flip-root"):
                new_root ^= 1
            if mutations.active("commit-replay-flip-root"):
                new_root ^= 1
        nref[new_root >> 1] += nref[root]
        nref[root] = 0
        target = get_alias(new_root >> 1)
        while target is not None:
            new_root = target ^ (new_root & 1)
            target = get_alias(new_root >> 1)
        if new_root >> 1 == root:
            raise ValueError(f"alias of var {root} resolves to itself")
        alias[root] = new_root
        if observe.enabled:
            observe.count("commit.plans")
            observe.count("commit.serial_replays", created)
        insert_works.append(created + 1)
        if sanitizer.enabled:
            # Committed MFFC = this lane's write footprint.
            Footprint(deleted).register(guard, root)

    return alias, insert_works, host_work
