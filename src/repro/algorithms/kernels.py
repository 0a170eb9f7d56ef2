"""Column-native pass kernels: NumPy sweeps over the graph columns.

The parallel passes were written one node at a time through the `Aig`
facade; at millions of nodes the per-node Python object work dominates
wall clock even though every *algorithmic* step is already batched.
This module holds the hot inner loops of the parallel passes as
whole-array NumPy sweeps over the columns exposed by
:meth:`repro.aig.aig.Aig.arrays`, committing new nodes through the
batch construction APIs (:meth:`add_raw_and_batch`,
:meth:`add_pi_batch`, :meth:`add_po_batch`):

* ``balance_collapse`` / ``balance_reconstruct`` — level-wise cluster
  collapse and Huffman re-balance gathers for ``par_balance``;
* ``refactor_survivor_keys`` — column sweep of the survivor fanin
  pairs for ``par_refactor``'s semi-sharing refine;
* ``refactor_deleted_sets`` — batched cone-restricted deletable sets
  for ``par_refactor_cb``;
* ``rewrite_batched_mffc`` — batched MFFC sizing for ``par_rewrite``'s
  match stage.

The kernels are the only implementation and run at every size, under
the race sanitizer and under armed mutations alike: the balance
collapse registers its cluster footprints with the ``b.collapse``
guard, and the ``b-flip-input`` / ``b-overlap-clusters`` mutation
sites live here.  The per-node loops they replaced are kept as test
oracles (``tests/pass_reference.py``), and
``tests/test_pass_kernels.py`` proves each kernel bit-identical to its
oracle (dumps, modeled times, counters).

Counters in the ``kernels.*`` namespace are wall-path diagnostics
(cluster shapes, batched waves); they are excluded from
kernel-vs-oracle counter parity, every other counter is identical.
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from repro import observe
from repro.aig.aig import Aig
from repro.aig.cuts import _segments
from repro.algorithms.seq_balance import (
    BALANCE_WORK_SCALE,
    collect_cluster_inputs,
)
from repro.commit import InsertionSession
from repro.engine.context import context_for
from repro.parallel import backend
from repro.parallel.machine import ParallelMachine
from repro.verify import mutations, sanitizer

#: Kept for run manifests only (perfbench records it): the column
#: kernels run at every size, so nothing in the package reads it.
KERNEL_CUTOFF = 0


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
    input literals are ``inputs[offsets[i]:offsets[i + 1]]``.
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
    """Frontier-driven cluster identification from POs towards PIs.

    The dominant cluster shape — a 2-input root whose fanin edges both
    terminate (complemented, multi-fanout or PI) — is recognized with
    two mask reads and needs no traversal; only genuinely multi-node
    clusters run the shared DFS of
    :func:`~repro.algorithms.seq_balance.collect_cluster_inputs`.
    Roots come out in discovery order (level by level, first-seen
    within a level), each root's inputs in DFS order.

    Clusters partition the AND nodes (internal nodes have exactly one
    non-complemented fanout, so each belongs to one cluster): under the
    sanitizer every cluster's members are one lane's write footprint
    of a single ``b.collapse`` guard spanning the whole collapse.
    """
    fan0, fan1, _ = aig.arrays()
    internal, is_and = _internal_mask_array(aig)
    # All balance kernels charge BALANCE_WORK_SCALE probe-equivalents
    # per node operation, matching the sequential meter's units.
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

    guard = sanitizer.batch("b.collapse")
    overlap = mutations.armed and mutations.active("b-overlap-clusters")
    first_root: int | None = None
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
        members_of: dict[int, list[int]] = {}
        for index in multi_idx.tolist():
            members: list[int] | None = (
                [] if sanitizer.enabled else None
            )
            inputs, seen = collect_cluster_inputs(
                aig, int(frontier[index]), internal, members=members
            )
            multi_inputs.append(inputs)
            visited[index] = seen
            counts[index] = len(inputs)
            if members is not None:
                members_of[index] = members
        if sanitizer.enabled:
            for index, root in enumerate(frontier.tolist()):
                members = members_of.get(index, [root])
                if overlap and first_root is not None:
                    # Graft the first cluster's root into this one.
                    members = members + [first_root]
                guard.write(root, members)
                if first_root is None:
                    first_root = root
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
    """Levels of the collapsed network (push-based wavefront).

    A root's level is one more than the maximum level over its input
    subtrees; constants and PIs are level 0.  Each round levels the
    roots whose root inputs are all levelled and releases their
    consumers through a reverse CSR, so the rounds together touch each
    input a constant number of times instead of once per collapsed
    level.  An input that is neither a constant, a PI nor a root never
    resolves: ``KeyError`` of the first unlevelled root in plan order.
    """
    level = np.zeros(aig.num_vars, dtype=np.int64)
    num_roots = plan.num_roots
    if not num_roots:
        return level
    # Each temporary below is dropped once dead: on b-xl this set-up is
    # close to the pass's peak RSS.  Plan index of each input's root;
    # -1 for constants and PIs, and num_roots (a dependency nothing
    # releases) for anything else.
    producer = np.full(aig.num_vars, num_roots, dtype=np.int64)
    producer[0] = -1
    producer[aig.pi_array()] = -1
    producer[plan.roots] = np.arange(num_roots, dtype=np.int64)
    source = producer[plan.inputs >> 1]
    del producer
    pending = np.add.reduceat(
        source >= 0, plan.offsets[:-1], dtype=np.int64
    )
    # Reverse CSR: the inputs each root produces, grouped by that root,
    # as the plan index of the cluster each one belongs to.
    edges = np.flatnonzero((source >= 0) & (source < num_roots))
    keys = source[edges]
    del source
    order = np.argsort(keys, kind="stable")
    release_counts = np.bincount(keys, minlength=num_roots)
    del keys
    edges = edges[order]
    del order
    released_by = np.searchsorted(plan.offsets, edges, side="right")
    released_by -= 1
    del edges
    release_starts = np.cumsum(release_counts) - release_counts
    done = np.zeros(num_roots, dtype=bool)
    ready = np.flatnonzero(pending == 0)
    while ready.size:
        counts = plan.counts[ready]
        inputs = plan.inputs[_segments(plan.offsets[ready], counts)] >> 1
        heads = np.cumsum(counts) - counts
        level[plan.roots[ready]] = (
            np.maximum.reduceat(level[inputs], heads) + 1
        )
        done[ready] = True
        released = released_by[
            _segments(release_starts[ready], release_counts[ready])
        ]
        np.subtract.at(pending, released, 1)
        # A root released twice this round is ready once.  Not
        # ``np.unique``: it imports ``numpy.ma`` on first use, about
        # 1 MiB of peak RSS.
        ready = np.sort(released[pending[released] == 0])
        ready = np.concatenate(
            (ready[:1], ready[1:][ready[1:] != ready[:-1]])
        )
    if not done.all():
        missing = int(plan.roots[~done][0])
        raise KeyError(missing)  # an input no root or PI defines
    return level


def balance_reconstruct(
    aig: Aig,
    plan: BalancePlan,
    machine: ParallelMachine,
    order_rng: random.Random | None = None,
):
    """Level-wise parallel subtree reconstruction (PIs to POs).

    Within one level all subtrees are rebuilt together by synchronized
    insertion passes, each combining every active subtree's two
    minimum-delay operands through one batched hash-table call.
    Two-input subtrees — the vast majority — finish in the first pass
    of their level and are handled entirely with array arithmetic;
    deeper subtrees keep per-subtree heaps.

    ``order_rng`` shuffles each level's subtree order.  By Property 3
    the delays produced are identical for every order (node counts may
    differ through sharing, functions never do); the property tests
    drive exactly this knob.

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
    # Counted allocation through the commit layer: each round's misses
    # go through the batch constructor (``commit.bulk_nodes``).
    session = InsertionSession(new, expected=aig.num_ands * 2)
    mapped = np.zeros(aig.num_vars, dtype=np.int64)
    delay = np.zeros(aig.num_vars, dtype=np.int64)
    pis = aig.pi_array()
    mapped[pis] = new.add_pi_batch(int(pis.shape[0]))

    if not plan.num_roots:
        return new, mapped

    # Batch roots by level, preserving discovery order within a level.
    order = np.argsort(level[plan.roots], kind="stable")
    root_levels = level[plan.roots][order]
    bounds = np.flatnonzero(root_levels[1:] != root_levels[:-1]) + 1
    fanin = plan.inputs
    mutate = mutations.armed and mutations.active("b-flip-input")
    for batch_idx in np.split(order, bounds):
        if order_rng is not None:
            shuffled = batch_idx.tolist()
            order_rng.shuffle(shuffled)
            batch_idx = np.asarray(shuffled, dtype=np.int64)
        batch_roots = plan.roots[batch_idx]
        starts = plan.offsets[:-1][batch_idx]
        counts = plan.counts[batch_idx]
        n = int(batch_roots.shape[0])
        if mutate:
            # Complement the first operand of the first subtree.
            fanin = fanin.copy()
            fanin[starts[0]] ^= 1
            mutate = False
        # Operand literals/delays of this level's inputs map through
        # the already-final entries of lower levels.
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
        merged, probes = session.insert_round(l0, l1)
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
            lits0 = []
            lits1 = []
            popped = []
            for position in sorted(heaps):
                heap = heaps[position]
                if len(heap) < 2:
                    continue
                hd0, hl0 = heapq.heappop(heap)
                hd1, hl1 = heapq.heappop(heap)
                lits0.append(hl0)
                lits1.append(hl1)
                popped.append((heap, hd0, hl0, hd1, hl1))
            if not popped:
                break
            merged_arr, probes_arr = session.insert_round(lits0, lits1)
            for (heap, hd0, hl0, hd1, hl1), got in zip(
                popped, merged_arr.tolist()
            ):
                if got == hl0:
                    heapq.heappush(heap, (hd0, got))
                elif got == hl1:
                    heapq.heappush(heap, (hd1, got))
                elif got <= 1:
                    heapq.heappush(heap, (0, got))
                else:
                    heapq.heappush(heap, (max(hd0, hd1) + 1, got))
            machine.launch(
                "b.insertion_pass",
                ((probes_arr + 5) * BALANCE_WORK_SCALE).tolist(),
            )
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

    ``{(f0, f1): var}`` over live ANDs not in ``replaced_nodes``,
    visited in ascending id order (on duplicate keys the later
    variable wins).
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


#: Cone members per deletable-set sweep.  The sweep holds about ten
#: int64 arrays of its member count; batching whole items up to this
#: size keeps that transient small at every pass size (one 18k-member
#: sweep raised ``rfc-deep``'s peak RSS by 1.7 MiB).  Results do not
#: depend on it: every item's fixpoint is independent.
_SWEEP_MEMBERS = 4096


def refactor_deleted_sets(
    aig: Aig, nref, item_roots: list, item_cones: list
) -> list[set[int]]:
    """Deletable node sets of many (root, cone) items, batched.

    The set semantics are exactly those of
    :func:`repro.commit.deref_cone` run per item on
    pristine reference counts: the least fixpoint seeded at the root of
    "every fanout reference comes from an already-deleted cone member",
    with ``nref`` the PO-inclusive fanout counts (double edges counted
    twice).  Unlike :func:`rewrite_batched_mffc` the *membership* is
    returned, not just the sizes — the conflict resolver of the
    conflict-breaking refactoring pass needs the footprints themselves.
    """
    sets: list[set[int]] = []
    lo = 0
    while lo < len(item_cones):
        hi = lo + 1
        size = len(item_cones[lo])
        while hi < len(item_cones):
            size += len(item_cones[hi])
            if size > _SWEEP_MEMBERS:
                break
            hi += 1
        sets.extend(
            _deleted_sets_sweep(
                aig, nref, item_roots[lo:hi], item_cones[lo:hi]
            )
        )
        lo = hi
    return sets


def _deleted_sets_sweep(
    aig: Aig, nref, item_roots: list, item_cones: list
) -> list[set[int]]:
    """:func:`refactor_deleted_sets` of one batch, in one fixpoint."""
    counts = np.fromiter(
        (len(cone) for cone in item_cones),
        dtype=np.int64,
        count=len(item_cones),
    )
    if counts.max() == 1:
        return [{root} for root in item_roots]
    vars_flat = np.empty(int(counts.sum()), dtype=np.int64)
    position = 0
    for cone in item_cones:
        upto = position + len(cone)
        vars_flat[position:upto] = list(cone)
        position = upto
    deleted = _deleted_mask(
        aig, nref, np.asarray(item_roots, dtype=np.int64), vars_flat, counts
    )
    # Slots are item-contiguous, so each item's members are one run of
    # the compressed array.
    members = vars_flat[deleted]
    starts = np.cumsum(counts) - counts
    bounds = np.cumsum(np.add.reduceat(deleted, starts, dtype=np.int64))
    return [
        set(members[start:stop].tolist())
        for start, stop in zip([0] + bounds[:-1].tolist(), bounds.tolist())
    ]


# ----------------------------------------------------------------------
# par_rewrite: batched MFFC sizing
# ----------------------------------------------------------------------


def rewrite_batched_mffc(aig: Aig, nref, item_roots, members, counts):
    """MFFC sizes of many (root, cone) items in one sweep.

    The cones come in CSR form: item ``i`` owns the next ``counts[i]``
    entries of the flat ``members`` array (its cone node ids, the root
    included, in any order — the deleted set is order-independent),
    and ``item_roots[i]`` is its root.  Returns the int64 array of
    per-item deleted-set sizes (see :func:`_deleted_mask`).
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
    deleted = _deleted_mask(aig, nref, item_roots, vars_flat, counts)
    starts = np.cumsum(counts) - counts
    return np.add.reduceat(deleted, starts, dtype=np.int64)


def _deleted_mask(aig: Aig, nref, item_roots, vars_flat, counts):
    """Per-slot deleted flags of many cone-restricted deref fixpoints.

    Item ``i`` owns the next ``counts[i]`` entries of ``vars_flat``
    (unique cone members, its root ``item_roots[i]`` included).  A
    member is deleted in the least fixpoint seeded at the root of
    "every fanout reference comes from an already-deleted member of
    the same item", with ``nref`` the PO-inclusive fanout counts
    (double edges counted twice, exactly like the decrement walk of
    :func:`repro.commit.deref_cone`).

    The fixpoint is propagated frontier-style: each member's two fanin
    edges are charged exactly once, when the member enters the deleted
    set, so the whole batch costs O(total cone nodes) regardless of
    cone depth.
    """
    fan0, fan1, _ = aig.arrays()
    total = int(vars_flat.shape[0])
    # Per-item slot lookup: cone members are unique within an item, so
    # (item, var) keys are globally unique and searchsorted resolves a
    # fanin's slot (or proves it lies outside the cone).
    stride = aig.num_vars
    item_base = np.repeat(
        np.arange(counts.size, dtype=np.int64) * stride, counts
    )
    sorted_keys = item_base + vars_flat
    order = np.argsort(sorted_keys)
    sorted_keys = sorted_keys[order]
    # Slot of each member's fanin 0 and fanin 1 in the same item, or
    # -1 for fanins outside the cone (never deletable from here).  One
    # side at a time keeps the temporaries at one entry per member.
    fanin_slots = []
    for fan in (fan0, fan1):
        dst_keys = item_base + (fan[vars_flat] >> 1)
        found = np.searchsorted(sorted_keys, dst_keys)
        np.minimum(found, total - 1, out=found)
        fanin_slots.append(
            np.where(sorted_keys[found] == dst_keys, order[found], -1)
        )
        del dst_keys, found
    del item_base
    root_keys = np.arange(counts.size, dtype=np.int64) * stride + item_roots
    frontier = order[np.searchsorted(sorted_keys, root_keys)]
    del order, sorted_keys, root_keys
    need = np.asarray(nref)[vars_flat]
    deleted = np.zeros(total, dtype=bool)
    deleted[frontier] = True
    dec = np.zeros(total, dtype=np.int64)
    while frontier.size:
        for slots in fanin_slots:
            dsts = slots[frontier]
            dec += np.bincount(dsts[dsts >= 0], minlength=total)
        frontier = np.flatnonzero((dec == need) & ~deleted & (need > 0))
        deleted[frontier] = True
    return deleted


__all__ = [
    "KERNEL_CUTOFF",
    "BalancePlan",
    "balance_collapse",
    "balance_finalize_pos",
    "balance_reconstruct",
    "refactor_deleted_sets",
    "refactor_survivor_keys",
    "rewrite_batched_mffc",
]
