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

The sweep runs on columns (docs/ARCHITECTURE.md, "Column-native
passes"): one :func:`~repro.aig.aig.resolve_aliases` array holds every
variable's resolved literal and is patched as nodes fold or merge, so
a level's keys are two gathers and its folds one vector test.  Merge
decisions follow the scalar sequence exactly — the first node in
(level, DFS order) with a key wins, across levels too (a fold can give
a node the key of a node one level below) — and one
:meth:`~repro.parallel.hashtable.HashTable.insert_batch` of every
non-folded key, in that order, yields the per-item probe counts the
per-level launches charge: the table never deletes, so one batch
probes exactly like the level-by-level inserts.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.aig.aig import Aig, resolve_aliases
from repro.engine.context import resolved_fanout_counts, resolved_levels
from repro.parallel.machine import ParallelMachine
from repro.parallel.hashtable import HashTable
from repro.verify import mutations, sanitizer
from repro.verify.invariants import (
    check_dedup_complete,
    check_no_dead_refs,
)


def dedup_and_dangling(
    aig: Aig,
    alias: dict[int, int],
    machine: ParallelMachine | None = None,
) -> Aig:
    """Run the cleanup pass and return the final compacted AIG.

    ``aig`` may contain dead nodes and forward references through
    ``alias`` (old root -> replacement literal); the alias map is
    extended in place with the duplicate redirections found.  A cyclic
    alias map raises ``ValueError``.
    """
    machine = machine if machine is not None else ParallelMachine()
    outer_tag = machine.tag
    machine.set_tag("dedup")

    with observe.span("dedup", "stage"):
        final = resolve_aliases(alias, aig.num_vars)
        levels, order = resolved_levels(aig, final)
        machine.launch_uniform("dedup.levelize", 1, max(len(order), 1))
        final = _merge_levels(aig, alias, final, levels, order, machine)
        del levels, order
        _remove_dangling(aig, alias, final, machine)
        if sanitizer.enabled:
            # In-pass protocol audit on the pre-compact graph: compact
            # re-strashes through sharing-aware creation, which would
            # silently repair a skipped merge or a wrongly-freed node.
            resolved = memoryview(final)

            def resolve(lit: int) -> int:
                return resolved[lit >> 1] ^ (lit & 1)

            check_dedup_complete(aig, alias, resolve)
            check_no_dead_refs(aig, alias, resolve)
        del final
        result = aig.compact(resolve=alias)
        # Result compaction is the parallel dump of the hash table to a
        # dense array (Section III-E); host only stitches the PO list.
        machine.launch_uniform("dedup.compact", 1, max(result.num_ands, 1))
        machine.host("dedup.finalize", result.num_pos)
    machine.set_tag(outer_tag)
    return result


def _merge_levels(
    aig: Aig,
    alias: dict[int, int],
    final: np.ndarray,
    levels: np.ndarray,
    order: np.ndarray,
    machine: ParallelMachine,
) -> np.ndarray:
    """The level-wise fold/merge sweep; returns the resolved array.

    ``final`` starts as the alias map's resolution.  A folded or merged
    node's entry is set to its (already final) target, so any literal
    resolves in two hops: the first reaches the pre-sweep root, the
    second that root's fold/merge target.
    """
    fan0, fan1, dead = aig.arrays()
    seq = order[~dead[order]]
    if mutations.armed and mutations.active("dedup-stale-level"):
        _mutate_stale_level(aig, final, levels, seq)
    seq = seq[np.argsort(levels[seq], kind="stable")]
    starts = np.flatnonzero(np.diff(levels[seq], prepend=-1)).tolist()
    spans = list(zip(starts, starts[1:] + [seq.shape[0]]))
    # First hop (through the caller's aliases) of every fanin, up front.
    lits0 = fan0[seq]
    lits1 = fan1[seq]
    hop0 = final[lits0 >> 1] ^ (lits0 & 1)
    hop1 = final[lits1 >> 1] ^ (lits1 & 1)
    del lits0, lits1

    table = HashTable(expected=max(aig.num_ands * 2, 64))
    stride = 2 * aig.num_vars  # literals are below it: lo * stride + hi
    winner_of: dict[int, int] = {}
    claim = winner_of.setdefault
    skip_merge = mutations.armed and mutations.active("dedup-skip-merge")
    # Non-folded keys in sweep order, and their positions in ``seq``.
    key_lo = np.empty(seq.shape[0], dtype=np.int64)
    key_hi = np.empty(seq.shape[0], dtype=np.int64)
    key_pos = np.empty(seq.shape[0], dtype=np.int64)
    filled = 0
    duplicates = 0
    for start, stop in spans:
        nodes = seq[start:stop]
        lit0 = hop0[start:stop]
        lit1 = hop1[start:stop]
        lit0 = final[lit0 >> 1] ^ (lit0 & 1)
        lit1 = final[lit1 >> 1] ^ (lit1 & 1)
        if sanitizer.enabled:
            # Each lane writes its own node (redirect/kill) and reads
            # its resolved fanins; a fanin written by a same-batch lane
            # is a write-read race (resolved fanins sit at strictly
            # lower levels, so a correct levelization never has one).
            guard = sanitizer.batch("dedup.level")
            for var, r0, r1 in zip(
                nodes.tolist(), lit0.tolist(), lit1.tolist()
            ):
                guard.write(var, (var,))
                guard.read(var, (r0 >> 1, r1 >> 1))
        lo = np.minimum(lit0, lit1)
        hi = np.maximum(lit0, lit1)
        # Trivial-AND folding: 0 & x, x & !x -> 0; 1 & x -> x; x & x -> x.
        fold = (lo <= 1) | ((lo >> 1) == (hi >> 1))
        if fold.any():
            folded = nodes[fold]
            targets = np.where(lo == 1, hi, np.where(lo == hi, lo, 0))[fold]
            final[folded] = targets
            folded_vars = folded.tolist()
            alias.update(zip(folded_vars, targets.tolist()))
            for var in folded_vars:
                aig.mark_dead(var)
            keep = ~fold
            nodes = nodes[keep]
            lo = lo[keep]
            hi = hi[keep]
            positions = start + np.flatnonzero(keep)
        else:
            positions = np.arange(start, stop)
        count = nodes.shape[0]
        key_lo[filled : filled + count] = lo
        key_hi[filled : filled + count] = hi
        key_pos[filled : filled + count] = positions
        filled += count
        node_list = nodes.tolist()
        winners = [
            claim(key, var)
            for key, var in zip((lo * stride + hi).tolist(), node_list)
        ]
        losers = [
            (var, winner)
            for var, winner in zip(node_list, winners)
            if winner != var
        ]
        if skip_merge and losers:
            skip_merge = False
            losers = losers[1:]
        for var, winner in losers:
            final[var] = winner << 1
            alias[var] = winner << 1
            aig.mark_dead(var)
        duplicates += len(losers)
    observe.count("dedup.duplicates", duplicates)

    # Probe counts: one sequential-order insert of every kept key; a
    # folded node charges one unit.
    _, probes = table.insert_batch(
        key_lo[:filled], key_hi[:filled], seq[key_pos[:filled]]
    )
    works = np.ones(seq.shape[0], dtype=np.int64)
    works[key_pos[:filled]] = probes
    for start, stop in spans:
        machine.launch_batch("dedup.level", works[start:stop])
    # Collapse the two hops into one resolved literal per variable.
    return final[final >> 1] ^ (final & 1)


def _mutate_stale_level(
    aig: Aig, final: np.ndarray, levels: np.ndarray, live: np.ndarray
) -> None:
    """Fault injection (``dedup-stale-level``; see repro.verify).

    Copies a live fanin's level onto one node, so the node and the
    fanin it reads land in the same concurrent batch — the ordering
    bug the sanitizer's write-read check exists to catch.
    """
    live_list = live.tolist()
    live_set = set(live_list)
    for var in live_list:
        for fanin in aig.fanins(var):
            fvar = int(final[fanin >> 1]) >> 1
            if fvar != var and fvar in live_set:
                levels[var] = levels[fvar]
                return


def _remove_dangling(
    aig: Aig,
    alias: dict[int, int],
    final: np.ndarray,
    machine: ParallelMachine,
) -> None:
    """Retire the MFFC of every zero-fanout node (one thread each)."""
    nref = resolved_fanout_counts(aig, final)
    fan0, _, dead = aig.arrays()
    num_vars = fan0.shape[0]
    # The live ANDs resolved_fanout_counts counted: not dead, unaliased.
    unaliased = (final >> 1) == np.arange(num_vars, dtype=np.int64)
    live = np.flatnonzero((fan0 >= 0) & ~dead & unaliased)
    del unaliased
    machine.launch_uniform("dedup.count_refs", 1, max(len(live), 1))

    roots = live[nref[live] == 0].tolist()
    del live
    resolved = memoryview(final)
    if mutations.armed and mutations.active("dedup-free-live"):
        # Fault injection: retire a PO-driving cone despite its live
        # fanout; the no-dead-refs protocol check must flag it.
        for po_lit in aig.pos:
            pvar = resolved[po_lit >> 1] >> 1
            if (
                aig.is_and(pvar)
                and not aig.is_dead(pvar)
                and pvar not in alias
            ):
                roots.append(pvar)
                break
    refs = memoryview(nref)
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
                fvar = resolved[fanin >> 1] >> 1
                refs[fvar] -= 1
                if refs[fvar] == 0 and aig.is_and(fvar) and fvar not in alias:
                    stack.append(fvar)
        removed += cone
        works.append(cone)
    observe.count("dedup.dangling_removed", removed)
    if roots:
        machine.launch("dedup.dangling", works)
