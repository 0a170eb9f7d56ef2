"""Column-native pass kernels: NumPy sweeps over the graph columns.

The parallel passes were written one node at a time through the `Aig`
facade; at millions of nodes the per-node Python object work dominates
wall clock even though every *algorithmic* step is already batched.
This module reimplements the hot inner loops of the three parallel
passes as whole-array NumPy sweeps over the columns exposed by
:meth:`repro.aig.aig.Aig.arrays`, committing new nodes through the
batch construction APIs (:meth:`add_raw_and_batch`,
:meth:`add_pi_batch`, :meth:`add_po_batch`) — **wall-clock only**,
with the scalar pass code as the semantic reference:

* ``balance_collapse`` / ``balance_reconstruct`` — level-wise cluster
  collapse and Huffman re-balance gathers for ``par_balance``;
* ``refactor_survivor_keys`` — column sweep replacing the per-node
  facade walk of ``par_refactor``'s semi-sharing refine (its cone
  collection reads :meth:`GraphContext.fanout_degrees`, the bincount
  twin of the Python fanout lists);
* ``rewrite_batched_mffc`` — batched MFFC sizing (bincount decrement
  fixpoint over whole item sets) for ``par_rewrite``'s match stage.

**Fallback gate.** :func:`enabled_for` turns the kernels on only when
the graph is at least :data:`KERNEL_CUTOFF` live ANDs and neither the
race sanitizer nor the seeded-mutation registry is armed (both hook
the scalar call sites).  Below the gate the scalar paths run
unchanged, which keeps the engine-parity goldens and the CEC fuzzer
(small graphs) bit-identical by construction; at scale the kernels are
proven identical by the hypothesis parity tests in
``tests/test_pass_kernels.py`` (dumps, modeled times, counters).

Counters in the dedicated ``kernels.*`` namespace are bumped on the
kernel path only — they are wall-path diagnostics and are excluded
from scalar/kernel counter-parity comparisons (every other counter is
bit-identical between the paths).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import observe
from repro.aig.aig import Aig
from repro.algorithms.seq_balance import (
    BALANCE_WORK_SCALE,
    collect_cluster_inputs,
)
from repro.commit import InsertionSession
from repro.engine.context import context_for
from repro.parallel import backend
from repro.parallel.machine import ParallelMachine
from repro.verify import mutations, sanitizer

#: Below this many live ANDs the whole-array set-up cost exceeds the
#: scalar loops; the passes keep their scalar paths (pure wall-clock
#: heuristic, never a semantic switch).  The gate stays until the
#: kernels run under the sanitizer and armed mutations, which the
#: goldens and the fuzzer need before the scalar paths can go
#: (ROADMAP.md, "Verify the path that runs at scale").
KERNEL_CUTOFF = 4096


def enabled_for(aig: Aig) -> bool:
    """True when the column-native kernels may run on ``aig``.

    The gate is wall-clock only — both paths produce bit-identical
    results — but the sanitizer and mutation hooks instrument the
    scalar call sites, so verification runs always take the scalar
    path.
    """
    return (
        aig.num_ands >= KERNEL_CUTOFF
        and not sanitizer.enabled
        and not mutations.armed
    )


def _gather_unique_array(items, keep_mask):
    """Array-native :func:`repro.parallel.frontier.gather_unique`.

    ``items`` is an int64 var array (duplicates allowed), ``keep_mask``
    a per-var bool filter.  Semantics, result order (first-seen) and
    the ``frontier.*`` counters match the scalar gather exactly.
    """
    uniq, first = np.unique(items, return_index=True)
    ordered = uniq[np.argsort(first, kind="stable")]
    ordered = ordered[keep_mask[ordered]]
    if observe.enabled:
        observe.count("frontier.gathered", int(items.size))
        observe.count("frontier.unique", int(ordered.size))
    return ordered, int(items.size)


# ----------------------------------------------------------------------
# par_balance: level-wise collapse + re-balance gathers
# ----------------------------------------------------------------------


class BalancePlan:
    """Collapsed-network arrays produced by :func:`balance_collapse`.

    ``roots`` are the cluster roots in discovery order; root ``i``'s
    input literals are ``inputs[offsets[i]:offsets[i + 1]]`` — exactly
    the ``(clusters, inputs_of)`` structures of the scalar collapse,
    flattened.
    """

    __slots__ = ("roots", "counts", "offsets", "inputs")

    def __init__(self, roots, counts, offsets, inputs) -> None:
        self.roots = roots
        self.counts = counts
        self.offsets = offsets
        self.inputs = inputs

    @property
    def num_roots(self) -> int:
        return int(self.roots.shape[0])


def _internal_mask_array(aig: Aig):
    """Vectorized ``seq_balance._internal_mask`` (bool ndarray)."""
    fan0, fan1, dead = aig.arrays()
    nref = context_for(aig).fanout_counts_array()
    is_and = fan0 >= 0
    live = is_and & ~dead
    compl_or_po = np.zeros(aig.num_vars, dtype=bool)
    pos = aig.po_array()
    compl_or_po[pos >> 1] = True
    lf0 = fan0[live]
    lf1 = fan1[live]
    compl_or_po[(lf0 >> 1)[(lf0 & 1) == 1]] = True
    compl_or_po[(lf1 >> 1)[(lf1 & 1) == 1]] = True
    internal = live & (nref == 1) & ~compl_or_po
    return internal, is_and


def balance_collapse(aig: Aig, machine: ParallelMachine) -> BalancePlan:
    """Column-native twin of ``par_balance._collapse``.

    Frontier-driven cluster identification from POs towards PIs.  The
    dominant cluster shape — a 2-input root whose fanin edges both
    terminate (complemented, multi-fanout or PI) — is recognized with
    two mask reads and needs no traversal; only genuinely multi-node
    clusters run the shared scalar DFS.  Root discovery order, input
    order, works and counters replicate the scalar loop exactly.
    """
    fan0, fan1, _ = aig.arrays()
    internal, is_and = _internal_mask_array(aig)
    machine.launch_batch(
        "b.mark_internal",
        backend.const_profile(BALANCE_WORK_SCALE, max(aig.num_vars, 1)),
    )

    frontier, gather_work = _gather_unique_array(
        aig.po_array() >> 1, is_and
    )
    machine.launch_batch(
        "b.init_frontier",
        backend.const_profile(BALANCE_WORK_SCALE, max(gather_work, 1)),
    )
    enqueued = np.zeros(aig.num_vars, dtype=bool)
    enqueued[frontier] = True

    roots_parts = []
    counts_parts = []
    inputs_parts = []
    while frontier.size:
        f0 = fan0[frontier]
        f1 = fan1[frontier]
        descend0 = ((f0 & 1) == 0) & internal[f0 >> 1]
        descend1 = ((f1 & 1) == 0) & internal[f1 >> 1]
        multi = descend0 | descend1
        n = int(frontier.shape[0])
        visited = np.ones(n, dtype=np.int64)
        counts = np.full(n, 2, dtype=np.int64)
        multi_idx = np.flatnonzero(multi)
        multi_inputs: list[list[int]] = []
        for index in multi_idx.tolist():
            inputs, seen = collect_cluster_inputs(
                aig, int(frontier[index]), internal
            )
            multi_inputs.append(inputs)
            visited[index] = seen
            counts[index] = len(inputs)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        single_starts = offsets[:-1][~multi]
        flat[single_starts] = f0[~multi]
        flat[single_starts + 1] = f1[~multi]
        for position, index in enumerate(multi_idx.tolist()):
            flat[offsets[index]:offsets[index + 1]] = multi_inputs[
                position
            ]
        machine.launch_batch(
            "b.collapse", (visited + counts) * BALANCE_WORK_SCALE
        )
        roots_parts.append(frontier)
        counts_parts.append(counts)
        inputs_parts.append(flat)
        if observe.enabled:
            observe.count("kernels.b_singleton_clusters", n - multi_idx.size)
        candidates = flat >> 1
        frontier, _ = _gather_unique_array(
            candidates, is_and & ~enqueued
        )
        enqueued[frontier] = True
        machine.launch_batch(
            "b.gather_frontier",
            backend.const_profile(
                BALANCE_WORK_SCALE, max(int(candidates.shape[0]), 1)
            ),
        )
    if roots_parts:
        roots = np.concatenate(roots_parts)
        counts = np.concatenate(counts_parts)
        inputs = np.concatenate(inputs_parts)
    else:
        roots = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
        inputs = np.empty(0, dtype=np.int64)
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )
    return BalancePlan(roots, counts, offsets, inputs)


def _levelize_collapsed(aig: Aig, plan: BalancePlan):
    """Levels of the collapsed network (pull-based wave fixpoint).

    Identical values to the scalar id-order sweep: a root's level is
    one more than the maximum level over its input subtrees, constants
    and PIs are level 0.  Cluster inputs only ever reference constants,
    PIs and other roots, so the fixpoint resolves in collapsed-depth
    rounds.
    """
    level = np.zeros(aig.num_vars, dtype=np.int64)
    resolved = np.zeros(aig.num_vars, dtype=bool)
    resolved[0] = True
    resolved[aig.pi_array()] = True
    if not plan.num_roots:
        return level
    invars = plan.inputs >> 1
    seg_starts = plan.offsets[:-1]
    root_done = np.zeros(plan.num_roots, dtype=bool)
    while True:
        ready = np.logical_and.reduceat(resolved[invars], seg_starts)
        newly = ready & ~root_done
        if not newly.any():
            break
        seg_max = np.maximum.reduceat(level[invars], seg_starts)
        targets = plan.roots[newly]
        level[targets] = seg_max[newly] + 1
        resolved[targets] = True
        root_done |= newly
    if not root_done.all():
        missing = int(plan.roots[~root_done][0])
        raise KeyError(missing)  # matches the scalar dict lookup
    return level


def balance_reconstruct(
    aig: Aig, plan: BalancePlan, machine: ParallelMachine
):
    """Column-native twin of ``par_balance._reconstruct``.

    Level-wise Huffman reconstruction.  Two-input subtrees — the vast
    majority — finish in the first synchronized insertion pass of
    their level and are handled entirely with array arithmetic;
    deeper subtrees keep the scalar heaps.  Every batched hash-table
    call, node allocation and work profile is issued in the scalar
    batch order, so the rebuilt graph, the probe sequences and the
    modeled times are bit-identical.

    Returns ``(new, mapped)``: the rebuilt (uncompacted) graph and the
    per-old-variable array of new literals.
    """
    level = _levelize_collapsed(aig, plan)
    machine.launch_batch(
        "b.levelize",
        backend.const_profile(
            BALANCE_WORK_SCALE, max(plan.num_roots, 1)
        ),
    )

    new = Aig(aig.name)
    # Counted allocation through the commit layer: whole miss chunks go
    # through the batch constructor (``commit.bulk_nodes``), stragglers
    # through the scalar path (``commit.serial_replays``).
    session = InsertionSession(new, expected=aig.num_ands * 2)
    mapped = np.zeros(aig.num_vars, dtype=np.int64)
    delay = np.zeros(aig.num_vars, dtype=np.int64)
    pis = aig.pi_array()
    mapped[pis] = new.add_pi_batch(int(pis.shape[0]))

    if not plan.num_roots:
        return new, mapped

    # Batch roots by level, preserving discovery order within a level
    # (the scalar ``batches.setdefault(...).append`` order).
    order = np.argsort(level[plan.roots], kind="stable")
    root_levels = level[plan.roots][order]
    bounds = np.flatnonzero(root_levels[1:] != root_levels[:-1]) + 1
    for batch_idx in np.split(order, bounds):
        batch_roots = plan.roots[batch_idx]
        starts = plan.offsets[:-1][batch_idx]
        counts = plan.counts[batch_idx]
        n = int(batch_roots.shape[0])
        # Operand literals/delays of this level's inputs map through
        # the already-final entries of lower levels.
        fanin = plan.inputs
        two = counts == 2
        da = np.empty(n, dtype=np.int64)
        la = np.empty(n, dtype=np.int64)
        db = np.empty(n, dtype=np.int64)
        lb = np.empty(n, dtype=np.int64)
        ta = fanin[starts[two]]
        tb = fanin[starts[two] + 1]
        da[two] = delay[ta >> 1]
        la[two] = mapped[ta >> 1] ^ (ta & 1)
        db[two] = delay[tb >> 1]
        lb[two] = mapped[tb >> 1] ^ (tb & 1)
        heaps: dict[int, list[tuple[int, int]]] = {}
        for position in np.flatnonzero(~two).tolist():
            start = int(starts[position])
            stop = start + int(counts[position])
            seg = fanin[start:stop]
            operands = list(
                zip(
                    delay[seg >> 1].tolist(),
                    (mapped[seg >> 1] ^ (seg & 1)).tolist(),
                )
            )
            heapq.heapify(operands)
            heaps[position] = operands
        machine.launch_batch(
            "b.init_recon_table", counts * BALANCE_WORK_SCALE
        )
        # First synchronized insertion pass: every subtree of the
        # level participates, in batch order.  Two-input subtrees pop
        # their full operand set here (min/max by (delay, literal) —
        # the heap's total order), so this one pass finishes them.
        swap = (db < da) | ((db == da) & (lb < la))
        d0 = np.where(swap, db, da)
        l0 = np.where(swap, lb, la)
        d1 = np.where(swap, da, db)
        l1 = np.where(swap, la, lb)
        for position, heap in heaps.items():
            hd0, hl0 = heapq.heappop(heap)
            hd1, hl1 = heapq.heappop(heap)
            d0[position] = hd0
            l0[position] = hl0
            d1[position] = hd1
            l1[position] = hl1
        merged, probes = session.insert_round_arrays(l0, l1)
        d_new = np.select(
            [merged == l0, merged == l1, merged <= 1],
            [d0, d1, np.zeros(n, dtype=np.int64)],
            default=np.maximum(d0, d1) + 1,
        )
        for position, heap in heaps.items():
            heapq.heappush(
                heap, (int(d_new[position]), int(merged[position]))
            )
        machine.launch_batch(
            "b.insertion_pass", (probes + 5) * BALANCE_WORK_SCALE
        )
        observe.count("b.insertion_passes")
        # Remaining passes only ever involve the deep subtrees.
        while True:
            pairs = []
            popped = []
            for position in sorted(heaps):
                heap = heaps[position]
                if len(heap) < 2:
                    continue
                hd0, hl0 = heapq.heappop(heap)
                hd1, hl1 = heapq.heappop(heap)
                pairs.append((hl0, hl1))
                popped.append((heap, hd0, hl0, hd1, hl1))
            if not pairs:
                break
            merged_list, probes_list = session.insert_round(pairs)
            works = []
            for (heap, hd0, hl0, hd1, hl1), got, cost in zip(
                popped, merged_list, probes_list
            ):
                if got == hl0:
                    heapq.heappush(heap, (hd0, got))
                elif got == hl1:
                    heapq.heappush(heap, (hd1, got))
                elif got <= 1:
                    heapq.heappush(heap, (0, got))
                else:
                    heapq.heappush(heap, (max(hd0, hd1) + 1, got))
                works.append((cost + 5) * BALANCE_WORK_SCALE)
            machine.launch("b.insertion_pass", works)
            observe.count("b.insertion_passes")
        # Commit the level's results: array roots finished in pass 1,
        # heap roots hold their single remaining operand.
        final_lit = merged
        final_delay = d_new
        for position, heap in heaps.items():
            heap_delay, heap_lit = heap[0]
            final_lit[position] = heap_lit
            final_delay[position] = heap_delay
        mapped[batch_roots] = final_lit
        delay[batch_roots] = final_delay
    return new, mapped


def balance_finalize_pos(aig: Aig, new: Aig, mapped) -> None:
    """Map the original POs through ``mapped`` onto the rebuilt graph."""
    pos = aig.po_array()
    new.add_po_batch(
        mapped[pos >> 1] ^ (pos & 1),
        [aig.po_name(index) for index in range(aig.num_pos)],
    )


# ----------------------------------------------------------------------
# par_refactor: survivor-key sweep (semi-sharing refine)
# ----------------------------------------------------------------------


def refactor_survivor_keys(
    aig: Aig, replaced_nodes: set[int]
) -> dict[tuple[int, int], int]:
    """Survivor fanin-pair map of ``_semi_sharing_refine``, columnwise.

    Exactly the dict the scalar facade loop builds: ``{(f0, f1): var}``
    over live ANDs not in ``replaced_nodes``, visited in ascending id
    order (on duplicate keys the later variable wins, as in the scalar
    loop).
    """
    survivors = aig.live_and_array()
    if replaced_nodes:
        replaced = np.zeros(aig.num_vars, dtype=bool)
        replaced[
            np.fromiter(
                replaced_nodes,
                dtype=np.int64,
                count=len(replaced_nodes),
            )
        ] = True
        survivors = survivors[~replaced[survivors]]
    fan0, fan1, _ = aig.arrays()
    return dict(
        zip(
            zip(fan0[survivors].tolist(), fan1[survivors].tolist()),
            survivors.tolist(),
        )
    )


# ----------------------------------------------------------------------
# par_refactor_cb: batched cone-restricted deletable sets
# ----------------------------------------------------------------------


def refactor_deleted_sets(
    aig: Aig, nref, item_roots: list, item_cones: list
) -> list[set[int]]:
    """Deletable node sets of many (root, cone) items in one sweep.

    The set semantics are exactly those of
    :func:`repro.commit.deref_cone` run per item on
    pristine reference counts: the least fixpoint seeded at the root of
    "every fanout reference comes from an already-deleted cone member",
    with ``nref`` the PO-inclusive fanout counts (double edges counted
    twice).  Unlike :func:`rewrite_batched_mffc` the *membership* is
    returned, not just the sizes — the conflict resolver of the
    conflict-breaking refactoring pass needs the footprints themselves.
    """
    num_items = len(item_cones)
    if not num_items:
        return []
    counts = np.fromiter(
        (len(cone) for cone in item_cones),
        dtype=np.int64,
        count=num_items,
    )
    if counts.max() == 1:
        return [{root} for root in item_roots]
    fan0, fan1, _ = aig.arrays()
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )
    total = int(offsets[-1])
    vars_flat = np.empty(total, dtype=np.int64)
    position = 0
    for cone in item_cones:
        upto = position + len(cone)
        vars_flat[position:upto] = list(cone)
        position = upto
    item_of = np.repeat(np.arange(num_items, dtype=np.int64), counts)
    # Per-item slot lookup as in :func:`rewrite_batched_mffc`: cone
    # members are unique within an item, so (item, var) keys are
    # globally unique and searchsorted resolves a fanin's slot (or
    # proves it lies outside the cone).
    stride = aig.num_vars
    keys = item_of * stride + vars_flat
    order = np.argsort(keys)
    sorted_keys = keys[order]
    dst_var = np.concatenate(
        (fan0[vars_flat] >> 1, fan1[vars_flat] >> 1)
    )
    dst_keys = np.concatenate((item_of, item_of)) * stride + dst_var
    found = np.minimum(
        np.searchsorted(sorted_keys, dst_keys), total - 1
    )
    inside = sorted_keys[found] == dst_keys
    dst_slot = np.full(2 * total, -1, dtype=np.int64)
    dst_slot[inside] = order[found[inside]]
    need = np.asarray(nref)[vars_flat]
    deleted = np.zeros(total, dtype=bool)
    root_keys = (
        np.arange(num_items, dtype=np.int64) * stride
        + np.asarray(item_roots, dtype=np.int64)
    )
    root_slots = order[np.searchsorted(sorted_keys, root_keys)]
    deleted[root_slots] = True
    dec = np.zeros(total, dtype=np.int64)
    frontier = root_slots
    while frontier.size:
        edges = np.concatenate((frontier, frontier + total))
        dsts = dst_slot[edges]
        dsts = dsts[dsts >= 0]
        dec += np.bincount(dsts, minlength=total)
        newly = (dec == need) & ~deleted & (need > 0)
        frontier = np.flatnonzero(newly)
        deleted[frontier] = True
    slots = np.flatnonzero(deleted)
    members = vars_flat[slots].tolist()
    owners = item_of[slots].tolist()
    sets: list[set[int]] = [set() for _ in range(num_items)]
    for owner, member in zip(owners, members):
        sets[owner].add(member)
    return sets


# ----------------------------------------------------------------------
# par_rewrite: batched MFFC sizing
# ----------------------------------------------------------------------


def rewrite_batched_mffc(aig: Aig, nref, item_roots, members, counts):
    """MFFC sizes of many (root, cone) items in one sweep.

    The cones come in CSR form: item ``i`` owns the next ``counts[i]``
    entries of the flat ``members`` array (its cone node ids, the root
    included, in any order — the scalar walk's result is
    order-independent), and ``item_roots[i]`` is its root.  Returns the
    int64 array of per-item deleted-set sizes: the least fixpoint
    seeded at the root of "every fanout reference comes from an
    already-deleted member", with ``nref`` the PO-inclusive fanout
    counts (double edges counted twice, exactly like the scalar
    decrement walk).

    The fixpoint is propagated frontier-style: each member's two fanin
    edges are charged exactly once, when the member enters the deleted
    set, so the whole batch costs O(total cone nodes) regardless of
    cone depth.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_items = counts.size
    if not num_items:
        return np.empty(0, dtype=np.int64)
    # Singleton cones resolve trivially (the root alone is deleted);
    # routing only multi-node cones through the fixpoint keeps the
    # sweep proportional to the interesting work.
    if counts.max() == 1:
        return counts.copy()
    item_roots = np.asarray(item_roots, dtype=np.int64)
    vars_flat = np.asarray(members, dtype=np.int64)
    multi = counts > 1
    if not multi.all():
        sizes = np.ones(num_items, dtype=np.int64)
        sizes[multi] = rewrite_batched_mffc(
            aig,
            nref,
            item_roots[multi],
            vars_flat[np.repeat(multi, counts)],
            counts[multi],
        )
        return sizes
    fan0, fan1, _ = aig.arrays()
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )
    total = int(offsets[-1])
    item_of = np.repeat(np.arange(num_items, dtype=np.int64), counts)
    # Per-item slot lookup: cone members are unique within an item, so
    # (item, var) keys are globally unique and searchsorted resolves a
    # fanin's slot (or proves it lies outside the cone).
    stride = aig.num_vars
    keys = item_of * stride + vars_flat
    order = np.argsort(keys)
    sorted_keys = keys[order]
    dst_var = np.concatenate(
        (fan0[vars_flat] >> 1, fan1[vars_flat] >> 1)
    )
    dst_keys = np.concatenate((item_of, item_of)) * stride + dst_var
    found = np.minimum(
        np.searchsorted(sorted_keys, dst_keys), total - 1
    )
    inside = sorted_keys[found] == dst_keys
    # dst_slot[e] for member slot s at edge positions s and s + total;
    # -1 marks fanins outside the cone (never deletable from here).
    dst_slot = np.full(2 * total, -1, dtype=np.int64)
    dst_slot[inside] = order[found[inside]]
    need = np.asarray(nref)[vars_flat]
    deleted = np.zeros(total, dtype=bool)
    root_keys = np.arange(num_items, dtype=np.int64) * stride + item_roots
    root_slots = order[np.searchsorted(sorted_keys, root_keys)]
    deleted[root_slots] = True
    dec = np.zeros(total, dtype=np.int64)
    frontier = root_slots
    while frontier.size:
        edges = np.concatenate((frontier, frontier + total))
        dsts = dst_slot[edges]
        dsts = dsts[dsts >= 0]
        dec += np.bincount(dsts, minlength=total)
        newly = (dec == need) & ~deleted & (need > 0)
        frontier = np.flatnonzero(newly)
        deleted[frontier] = True
    return np.add.reduceat(deleted.astype(np.int64), offsets[:-1])


__all__ = [
    "KERNEL_CUTOFF",
    "BalancePlan",
    "balance_collapse",
    "balance_finalize_pos",
    "balance_reconstruct",
    "enabled_for",
    "refactor_deleted_sets",
    "refactor_survivor_keys",
    "rewrite_batched_mffc",
]
