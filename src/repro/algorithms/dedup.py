"""De-duplication and dangling-node removal (paper, Section III-F).

After parallel replacement (refactoring or rewriting), the AIG may
contain structural duplicates — when a resynthesized cone's new root
already existed, the fanouts of old and new root can become pairwise
identical (Figure 4) — and dangling nodes, when a cone function does
not depend on all of its cut inputs.

De-duplication processes nodes **level-wise from PIs to POs**: each
node's alias-resolved fanin pair is inserted into the parallel hash
table; a loser (same key, later node) is redirected to the resident
winner.  Level order matters because merging two nodes can create new
duplicates among their fanouts, which sit at higher levels.  Dangling
removal then assigns one thread per zero-fanout node to retire its
MFFC.  Both stages are metered as parallel kernels under the ``dedup``
tag, which Figure 8 reports separately from ``rw``/``rf``.
"""

from __future__ import annotations

from repro import observe
from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_not_cond, lit_pair_key, lit_var
from repro.engine.context import resolved_levels
from repro.engine.registry import register_pass
from repro.parallel import backend
from repro.parallel.frontier import group_by_level
from repro.parallel.machine import ParallelMachine
from repro.parallel.vec import VecHashTable
from repro.verify import mutations, sanitizer
from repro.verify.invariants import (
    check_dedup_complete,
    check_no_dead_refs,
)


@register_pass(
    "dedup",
    engine="gpu",
    description="de-duplication and dangling-node cleanup",
)
def dedup_and_dangling(
    aig: Aig,
    alias: dict[int, int],
    machine: ParallelMachine | None = None,
) -> Aig:
    """Run the cleanup pass and return the final compacted AIG.

    ``aig`` may contain dead nodes and forward references through
    ``alias`` (old root -> replacement literal); the alias map is
    extended in place with the duplicate redirections found.
    """
    machine = machine if machine is not None else ParallelMachine()
    outer_tag = machine.tag
    machine.set_tag("dedup")

    def resolve(lit: int) -> int:
        while (lit >> 1) in alias:
            lit = lit_not_cond(alias[lit >> 1], lit_compl(lit))
        return lit

    with observe.span("dedup", "stage"):
        levels, order = resolved_levels(aig, alias, resolve)
        machine.launch_batch(
            "dedup.levelize", backend.const_profile(1, max(len(order), 1))
        )

        live = [
            var
            for var in order
            if aig.is_and(var) and not aig.is_dead(var) and var not in alias
        ]
        if mutations.armed and mutations.active("dedup-stale-level"):
            _mutate_stale_level(aig, alias, resolve, levels, live)
        batches, _ = group_by_level(live, levels.__getitem__)

        table = VecHashTable(expected=max(aig.num_ands * 2, 64))
        skip_merge = mutations.armed and mutations.active(
            "dedup-skip-merge"
        )
        duplicates = 0
        for batch in batches:
            # Nodes of one level never depend on each other's outcome
            # (resolved fanins sit at strictly lower levels), so folds
            # apply up front and the irreducible rest goes through the
            # batched table insert.
            # The sanitizer checks exactly that level claim: each lane
            # writes its own node (redirect/kill) and reads its
            # resolved fanins; a fanin written by a same-batch lane is
            # a write-read race.
            guard = sanitizer.batch("dedup.level")
            works = [1] * len(batch)
            keys = []
            values = []
            positions = []
            for position, var in enumerate(batch):
                f0, f1 = aig.fanins(var)
                r0 = resolve(f0)
                r1 = resolve(f1)
                if sanitizer.enabled:
                    guard.write(var, (var,))
                    guard.read(var, (lit_var(r0), lit_var(r1)))
                folded = _fold(r0, r1)
                if folded is not None:
                    alias[var] = folded
                    aig.mark_dead(var)
                    continue
                keys.append(lit_pair_key(r0, r1))
                values.append(var)
                positions.append(position)
            winners, probes_list = table.insert_batch(keys, values)
            for position, var, winner, probes in zip(
                positions, values, winners, probes_list
            ):
                works[position] = probes
                if winner != var:
                    if skip_merge:
                        skip_merge = False
                        continue
                    alias[var] = winner << 1
                    aig.mark_dead(var)
                    duplicates += 1
            machine.launch("dedup.level", works)
        observe.count("dedup.duplicates", duplicates)

        _remove_dangling(aig, alias, resolve, machine)
        if sanitizer.enabled:
            # In-pass protocol audit on the pre-compact graph: compact
            # re-strashes through sharing-aware creation, which would
            # silently repair a skipped merge or a wrongly-freed node.
            check_dedup_complete(aig, alias, resolve)
            check_no_dead_refs(aig, alias, resolve)
        result, _ = aig.compact(resolve=alias)
        # Result compaction is the parallel dump of the hash table to a
        # dense array (Section III-E); host only stitches the PO list.
        machine.launch_batch(
            "dedup.compact",
            backend.const_profile(1, max(result.num_ands, 1)),
        )
        machine.host("dedup.finalize", result.num_pos)
    machine.set_tag(outer_tag)
    return result


def _mutate_stale_level(
    aig: Aig, alias: dict[int, int], resolve, levels, live
) -> None:
    """Fault injection (``dedup-stale-level``; see repro.verify).

    Copies a live fanin's level onto one node, so the node and the
    fanin it reads land in the same concurrent batch — the ordering
    bug the sanitizer's write-read check exists to catch.
    """
    live_set = set(live)
    for var in live:
        for fanin in aig.fanins(var):
            fvar = lit_var(resolve(fanin))
            if fvar != var and fvar in live_set:
                levels[var] = levels[fvar]
                return


def _fold(r0: int, r1: int) -> int | None:
    """Trivial-AND folding on resolved fanins; None when irreducible."""
    key0, key1 = lit_pair_key(r0, r1)
    if key0 == 0 or key0 == (key1 ^ 1):
        return 0
    if key0 == 1:
        return key1
    if key0 == key1:
        return key0
    return None


def _remove_dangling(
    aig: Aig,
    alias: dict[int, int],
    resolve,
    machine: ParallelMachine,
) -> None:
    """Retire the MFFC of every zero-fanout node (one thread each)."""
    nref = [0] * aig.num_vars
    live = [
        var
        for var in aig.and_vars()
        if var not in alias
    ]
    for var in live:
        for fanin in aig.fanins(var):
            nref[lit_var(resolve(fanin))] += 1
    for po_lit in aig.pos:
        nref[lit_var(resolve(po_lit))] += 1
    machine.launch_batch(
        "dedup.count_refs", backend.const_profile(1, max(len(live), 1))
    )

    roots = [var for var in live if nref[var] == 0]
    if mutations.armed and mutations.active("dedup-free-live"):
        # Fault injection: retire a PO-driving cone despite its live
        # fanout; the no-dead-refs protocol check must flag it.
        for po_lit in aig.pos:
            pvar = lit_var(resolve(po_lit))
            if (
                aig.is_and(pvar)
                and not aig.is_dead(pvar)
                and pvar not in alias
            ):
                roots.append(pvar)
                break
    works = []
    removed = 0
    for root in roots:
        if aig.is_dead(root):
            continue
        cone = 0
        stack = [root]
        while stack:
            var = stack.pop()
            if aig.is_dead(var):
                continue
            aig.mark_dead(var)
            cone += 1
            for fanin in aig.fanins(var):
                fvar = lit_var(resolve(fanin))
                nref[fvar] -= 1
                if nref[fvar] == 0 and aig.is_and(fvar) and fvar not in alias:
                    stack.append(fvar)
        removed += cone
        works.append(cone)
    observe.count("dedup.dangling_removed", removed)
    if roots:
        machine.launch("dedup.dangling", works)
