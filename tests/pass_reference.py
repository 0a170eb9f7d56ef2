"""Per-node references of the column-native pass kernels (the oracles).

These are the scalar halves the passes ran below the old kernel size
gate, kept verbatim in behavior and moved here once the column kernels
of :mod:`repro.algorithms.kernels` became the only production path:

* :func:`reference_par_balance` — the whole ``b`` pass with the
  frontier-set collapse and the heap-per-subtree reconstruction;
* :func:`reference_levelize_collapsed` — the collapsed network's
  levels as a pull fixpoint over every cluster input per round;
* :func:`reference_select` — ``rw``'s winner selection with one
  Python MFFC walk per item;
* :func:`reference_ffc_cutter` — ``rf``'s FFC test walking the Python
  fanout lists;
* :func:`reference_survivor_keys` — ``rf``'s semi-sharing survivor map
  built through the ``Aig`` facade;
* :func:`reference_deleted_sets` — ``rfc``'s deletable sets, one
  :func:`~repro.commit.deref_cone` per cone;
* :func:`reference_replace_stage` — ``rw``'s serial replay with a
  membership walk (:func:`reference_cone_nodes`), a second walk for the
  truth table (:func:`~repro.logic.truth.simulate_cone`), a third for
  the dereference through ``view.fanins``, and the template built by
  a per-call literal map (:func:`reference_instantiate_template`).

:func:`oracle_paths` swaps the six pass sites into the passes at once,
so a whole script can run on the references; ``tests/test_pass_kernels.py``
compares the two runs, and compares the levelize oracle (which the
whole-pass balance reference does not call) directly.
"""

from __future__ import annotations

import heapq
import importlib
import random
from contextlib import contextmanager

import numpy as np

from repro import observe
from repro.aig.aig import Aig, resolve_aliases
from repro.aig.cuts import reconv_cut
from repro.aig.literals import lit_compl, lit_not_cond, lit_var, make_lit
from repro.aig.traversal import fanout_lists
from repro.algorithms import common, kernels
from repro.algorithms.common import AliasView, PassResult
from repro.algorithms.rewrite_lib import match_function
from repro.algorithms.seq_balance import (
    BALANCE_WORK_SCALE,
    _internal_mask,
    collect_cluster_inputs,
)
from repro.commit import (
    Footprint,
    InsertionSession,
    apply_replacement,
    deref_cone,
    ref_cone_back,
)
from repro.engine.context import context_for
from repro.logic.npn import npn_leaf_assignment
from repro.logic.truth import simulate_cone
from repro.parallel.frontier import gather_unique
from repro.parallel.machine import ParallelMachine
from repro.verify import mutations, sanitizer

# ----------------------------------------------------------------------
# b: the whole pass
# ----------------------------------------------------------------------


def reference_par_balance(
    aig: Aig,
    machine: ParallelMachine | None = None,
    order_rng: random.Random | None = None,
) -> PassResult:
    """``par_balance`` on the per-node collapse and reconstruction."""
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    with observe.span("b.collapse", "stage"):
        clusters, inputs_of = _collapse(aig, machine)
    observe.count("b.clusters_collapsed", len(clusters))
    with observe.span("b.reconstruct", "stage"):
        new, lit_map = _reconstruct(
            aig, clusters, inputs_of, machine, order_rng=order_rng
        )
    for index, po_lit in enumerate(aig.pos):
        mapped_lit, _ = lit_map[lit_var(po_lit)]
        new.add_po(
            lit_not_cond(mapped_lit, lit_compl(po_lit)),
            aig.po_name(index),
        )
    machine.host("b.finalize", aig.num_pos)
    result = new.compact()
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"clusters": len(clusters)},
    )


def _collapse(
    aig: Aig, machine: ParallelMachine
) -> tuple[list[int], dict[int, list[int]]]:
    """Frontier-driven cluster identification from POs towards PIs."""
    internal = _internal_mask(aig)
    machine.launch_uniform(
        "b.mark_internal", BALANCE_WORK_SCALE, max(aig.num_vars, 1)
    )
    frontier, gather_work = gather_unique(
        (lit_var(lit) for lit in aig.pos), keep=aig.is_and
    )
    machine.launch_uniform(
        "b.init_frontier", BALANCE_WORK_SCALE, max(gather_work, 1)
    )
    enqueued = set(frontier)
    roots: list[int] = []
    inputs_of: dict[int, list[int]] = {}
    while frontier:
        works = []
        next_candidates: list[int] = []
        for root in frontier:
            inputs, visited = collect_cluster_inputs(aig, root, internal)
            inputs_of[root] = inputs
            roots.append(root)
            works.append((visited + len(inputs)) * BALANCE_WORK_SCALE)
            next_candidates.extend(lit_var(fanin) for fanin in inputs)
        machine.launch("b.collapse", works)
        frontier, gather_work = gather_unique(
            next_candidates,
            keep=lambda var: aig.is_and(var) and var not in enqueued,
        )
        enqueued.update(frontier)
        machine.launch_uniform(
            "b.gather_frontier",
            BALANCE_WORK_SCALE, max(len(next_candidates), 1),
        )
    return roots, inputs_of


def _reconstruct(
    aig: Aig,
    roots: list[int],
    inputs_of: dict[int, list[int]],
    machine: ParallelMachine,
    order_rng: random.Random | None = None,
) -> tuple[Aig, dict[int, tuple[int, int]]]:
    """Level-wise subtree reconstruction with one heap per subtree."""
    level_of: dict[int, int] = {0: 0}
    for var in aig.pis:
        level_of[var] = 0
    for root in sorted(roots):  # id order is topological
        level = 0
        for fanin in inputs_of[root]:
            level = max(level, level_of[lit_var(fanin)])
        level_of[root] = level + 1
    machine.launch_uniform(
        "b.levelize", BALANCE_WORK_SCALE, max(len(roots), 1)
    )

    batches: dict[int, list[int]] = {}
    for root in roots:
        batches.setdefault(level_of[root], []).append(root)

    new = Aig(aig.name)
    session = InsertionSession(new, expected=aig.num_ands * 2)
    lit_map: dict[int, tuple[int, int]] = {0: (0, 0)}
    for var in aig.pis:
        lit_map[var] = (new.add_pi(), 0)

    for level in sorted(batches):
        batch = batches[level]
        if order_rng is not None:
            batch = list(batch)
            order_rng.shuffle(batch)
        heaps = []
        for root in batch:
            operands = []
            for fanin in inputs_of[root]:
                mapped, delay = lit_map[lit_var(fanin)]
                operands.append(
                    (delay, lit_not_cond(mapped, lit_compl(fanin)))
                )
            heapq.heapify(operands)
            heaps.append(operands)
        machine.launch(
            "b.init_recon_table",
            [len(inputs_of[root]) * BALANCE_WORK_SCALE for root in batch],
        )
        while True:
            pairs = []
            popped = []
            for heap in heaps:
                if len(heap) < 2:
                    continue
                d0, l0 = heapq.heappop(heap)
                d1, l1 = heapq.heappop(heap)
                pairs.append((l0, l1))
                popped.append((heap, d0, l0, d1, l1))
            if not pairs:
                break
            merged_arr, probes_arr = session.insert_round(
                [l0 for l0, _ in pairs], [l1 for _, l1 in pairs]
            )
            merged_list = merged_arr.tolist()
            probes_list = probes_arr.tolist()
            works = []
            for (heap, d0, l0, d1, l1), merged, probes in zip(
                popped, merged_list, probes_list
            ):
                if merged == l0:
                    heapq.heappush(heap, (d0, merged))
                elif merged == l1:
                    heapq.heappush(heap, (d1, merged))
                elif merged <= 1:
                    heapq.heappush(heap, (0, merged))
                else:
                    heapq.heappush(heap, (max(d0, d1) + 1, merged))
                works.append((probes + 5) * BALANCE_WORK_SCALE)
            machine.launch("b.insertion_pass", works)
            observe.count("b.insertion_passes")
        for root, heap in zip(batch, heaps):
            delay, literal = heap[0]
            lit_map[root] = (literal, delay)
    return new, lit_map


def reference_levelize_collapsed(aig: Aig, plan) -> np.ndarray:
    """``kernels._levelize_collapsed`` as the pull-based wave fixpoint.

    Every round reduces over *all* cluster inputs, so the cost is the
    collapsed depth times the inputs.
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
        raise KeyError(missing)  # an input no root or PI defines
    return level


# ----------------------------------------------------------------------
# rw: winner selection
# ----------------------------------------------------------------------


def reference_select(aig: Aig, cols, items) -> list[tuple]:
    """``par_rewrite._select_batched`` with one MFFC walk per item.

    The walk is ``deref_cone`` against a local decrement map; the
    fanin of a cone member is either a cone member or a leaf, so "not
    a leaf" is the exact cone-membership test.
    """
    rows, which, item_ands, bound = items
    nref = context_for(aig).fanout_counts()  # read-only here
    fan0 = aig._fanin0
    fan1 = aig._fanin1
    winners: list[tuple] = []
    best = None
    for root, row, slot, ands, limit, leaf_row in zip(
        cols.root[rows].tolist(), rows.tolist(), which.tolist(),
        item_ands.tolist(), bound.tolist(), cols.leaves[rows].tolist(),
    ):
        if best is not None and best[0] != root:
            winners.append(best)
            best = None
        if best is not None and limit <= best[3]:
            continue
        stop = set(leaf_row)
        deleted: set[int] = set()
        dec: dict[int, int] = {}
        stack = [root]
        while stack:
            var = stack.pop()
            if var in deleted:
                continue
            deleted.add(var)
            for fvar in (fan0[var] >> 1, fan1[var] >> 1):
                count = dec.get(fvar, 0) + 1
                dec[fvar] = count
                if nref[fvar] == count and fvar not in stop:
                    stack.append(fvar)
        est_gain = len(deleted) - ands
        if best is None or est_gain > best[3]:
            best = (root, row, slot, est_gain)
    if best is not None:
        winners.append(best)
    return winners


# ----------------------------------------------------------------------
# rw: serial replay
# ----------------------------------------------------------------------


def reference_cone_nodes(view, root: int, cut: set[int]) -> set[int]:
    """AND variables between ``root`` and ``cut`` on the resolved graph."""
    cone: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in cone or var in cut:
            continue
        if not view.is_and(var):
            raise ValueError(f"cut does not cover var {var}")
        cone.add(var)
        if len(cone) > 64:
            raise ValueError("cone blow-up: stale cut")
        for fanin in view.fanins(var):
            stack.append(lit_var(fanin))
    return cone


def reference_instantiate_template(template, transform, leaf_lits, add_and):
    """``instantiate_template`` walking the template through a literal map."""
    inputs, out_neg = npn_leaf_assignment(transform, leaf_lits)
    lit_map: dict[int, int] = {0: 0}
    for t_var, literal in zip(template.pis, inputs):
        lit_map[t_var] = literal
    for t_var in template.and_vars():
        f0, f1 = template.fanins(t_var)
        n0 = lit_not_cond(lit_map[lit_var(f0)], lit_compl(f0))
        n1 = lit_not_cond(lit_map[lit_var(f1)], lit_compl(f1))
        lit_map[t_var] = add_and(n0, n1)
    po_lit = template.pos[0]
    root = lit_not_cond(lit_map[lit_var(po_lit)], lit_compl(po_lit))
    return root ^ 1 if out_neg else root


def reference_replace_stage(
    aig: Aig,
    candidates: dict[int, tuple],
    machine: ParallelMachine,
    min_gain: int,
    cases: set[str] | None = None,
) -> tuple[dict[int, int], list[int], int]:
    """``par_rewrite._replace_stage`` with three walks per candidate.

    ``cases``, when given, collects which replay situations the run
    met, so a test can prove its pinned examples reach them.
    """
    view = AliasView(aig)
    nref = common.resolved_fanout_counts(
        aig, resolve_aliases(view.alias, aig.num_vars)
    ).tolist()
    guard = sanitizer.batch("rw.replace")
    insert_works: list[int] = []
    host_work = aig.num_ands
    noted = cases if cases is not None else set()

    for root in sorted(candidates):
        if not view.is_and(root) or root in view.alias or nref[root] == 0:
            host_work += 1
            continue
        leaves, transform, template, _ = candidates[root]
        resolved_leaves: list[int] = []
        seen: set[int] = set()
        stale = False
        for var in leaves:
            resolved = view.resolve(make_lit(var))
            rvar = lit_var(resolved)
            if cases is not None:
                hops, flips, hop = 0, 0, var
                while hop in view.alias:
                    flips |= view.alias[hop] & 1
                    hop = view.alias[hop] >> 1
                    hops += 1
                if hops >= 2 and flips:
                    noted.add("complemented-alias-chain")
            if aig.is_dead(rvar):
                stale = True
                noted.add("dead-leaf")
                break
            if rvar not in seen:
                seen.add(rvar)
                resolved_leaves.append(rvar)
            else:
                noted.add("merged-leaves")
        if root in seen:
            noted.add("root-among-leaves")
        if stale or len(resolved_leaves) < 2 or root in seen:
            host_work += 2
            continue
        resolved_leaves.sort()
        try:
            cone = reference_cone_nodes(view, root, seen)
            table = simulate_cone(
                view, make_lit(root), resolved_leaves
            )
        except ValueError as error:
            noted.add(
                "cone-blow-up" if "blow-up" in str(error)
                else "constant-in-cone" if str(error).endswith(" 0")
                else "cone-escape"
            )
            host_work += 4
            continue
        # Re-match when resolution changed the cut's function.
        transform, template = match_function(table, resolved_leaves)
        deleted = deref_cone(view, root, cone, nref)
        leaf_lits = [make_lit(var) for var in resolved_leaves]

        def build(add_and):
            root_lit = reference_instantiate_template(
                template, transform, leaf_lits, add_and
            )
            # The pass's seeded bug flips only the variable-neutral bit,
            # so flipping before the gates lands like flipping after.
            if mutations.active("rw-flip-root"):
                root_lit ^= 1
            return root_lit

        gain, created = apply_replacement(
            view, nref, root, deleted, build, min_gain
        )
        host_work += len(deleted) + 4
        if gain is None:
            noted.add("rejected")
            continue
        insert_works.append(created + 1)
        if sanitizer.enabled:
            Footprint(deleted).register(guard, root)

    return view.alias, insert_works, host_work


# ----------------------------------------------------------------------
# rf: FFC test and survivor keys
# ----------------------------------------------------------------------


def reference_ffc_cutter(aig: Aig, limit: int):
    """``common._ffc_cutter`` walking each candidate's fanout list."""
    context = context_for(aig)
    drives_po = context.po_fanout_mask()
    fanouts = fanout_lists(aig)
    # The same derived-state lookup the production cutter makes, so
    # the ``engine.cache_*`` counters stay comparable.
    context.fanout_degrees()

    def expandable(var: int, cone: set[int]) -> bool:
        if drives_po[var]:
            return False
        for reader in fanouts[var]:
            if reader not in cone:
                return False
        return True

    def ffc_cut(root: int):
        return reconv_cut(aig, root, limit, expandable=expandable)

    return ffc_cut


def reference_survivor_keys(
    aig: Aig, replaced_nodes: set[int]
) -> dict[tuple[int, int], int]:
    """``kernels.refactor_survivor_keys`` through the ``Aig`` facade."""
    survivor_keys = {}
    for var in aig.and_vars():
        if var not in replaced_nodes:
            survivor_keys[aig.fanins(var)] = var
    return survivor_keys


# ----------------------------------------------------------------------
# rfc: deletable sets
# ----------------------------------------------------------------------


def reference_deleted_sets(
    aig: Aig, nref, item_roots: list, item_cones: list
) -> list[set[int]]:
    """``kernels.refactor_deleted_sets``, one ``deref_cone`` per item."""
    counts = list(nref)
    sets = []
    for root, cone in zip(item_roots, item_cones):
        deleted = deref_cone(aig, root, cone, counts)
        ref_cone_back(aig, deleted, counts)
        sets.append(deleted)
    return sets


# ----------------------------------------------------------------------
# Swapping the references in
# ----------------------------------------------------------------------

# The package re-exports the pass functions under their module names.
_par_balance = importlib.import_module("repro.algorithms.par_balance")
_par_rewrite = importlib.import_module("repro.algorithms.par_rewrite")

#: (module, attribute, reference) of every kernel site.
ORACLES = (
    (_par_balance, "par_balance", reference_par_balance),
    (_par_rewrite, "_select_batched", reference_select),
    (_par_rewrite, "_replace_stage", reference_replace_stage),
    (common, "_ffc_cutter", reference_ffc_cutter),
    (kernels, "refactor_survivor_keys", reference_survivor_keys),
    (kernels, "refactor_deleted_sets", reference_deleted_sets),
)


@contextmanager
def oracle_paths():
    """Run every kernel site on its per-node reference; restore on exit."""
    saved = [
        (module, name, getattr(module, name))
        for module, name, _ in ORACLES
    ]
    try:
        for module, name, reference in ORACLES:
            setattr(module, name, reference)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
