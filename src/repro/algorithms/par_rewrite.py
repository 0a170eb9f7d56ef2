"""GPU-parallel rewriting in the style of NovelRewrite [9].

This pass reproduces the algorithm the paper *builds on* (and measures
against in Table I): the best replacement candidate of every node is
found in parallel on the static AIG — cut enumeration, NPN matching and
gain estimation as kernels — and candidate cones are inserted through
the parallel hash table; but the keep/delete *replacement* decision
runs **sequentially** on the host, which [9] accepts because rewriting
cones are small, and which becomes the bottleneck when cones grow
(Section III's motivation for the refactoring framework).

Kernel/host attribution:

* ``rw.match`` (kernel) — per-node cut evaluation and library matching;
* ``rw.insert`` (kernel) — batched construction of the winning cones;
* ``rw.replace_seq`` (host) — the topological-order dereference /
  re-evaluate / commit loop, the measured "sequential part" of Table I.

The committed result is identical to
:func:`repro.algorithms.seq_rewrite.seq_rewrite` run with the same
candidates, matching [9]'s same-or-better-than-ABC quality claim.  The
standard de-duplication and dangling cleanup (Section III-F) runs
afterwards.
"""

from __future__ import annotations

from repro import observe
from repro.aig.aig import Aig
from repro.aig.cuts import enumerate_cuts_with_tables
from repro.aig.literals import lit_var, make_lit
from repro.algorithms import kernels
from repro.algorithms.common import (
    AliasView,
    PassResult,
    resolved_fanout_counts,
)
from repro.algorithms.dedup import dedup_and_dangling
from repro.algorithms.rewrite_lib import instantiate_template, match_function
from repro.algorithms.seq_rewrite import (
    CUT_EVAL_WORK,
    MAX_CUTS_PER_NODE,
    REWRITE_CUT_SIZE,
    _cone_nodes,
)
from repro.commit import (
    Footprint,
    apply_replacement,
    deref_cone,
)
from repro.engine.context import clone_with_context, context_for
from repro.engine.registry import (
    PassInvocation,
    register_command,
    register_pass,
)
from repro.logic.truth import simulate_cone
from repro.parallel import backend
from repro.parallel.machine import ParallelMachine
from repro.verify import sanitizer


@register_pass(
    "par_rewrite",
    engine="gpu",
    description="NovelRewrite-style parallel rewriting",
)
def par_rewrite(
    aig: Aig,
    zero_gain: bool = False,
    machine: ParallelMachine | None = None,
    run_cleanup: bool = True,
) -> PassResult:
    """One pass of parallel rewriting; returns the compacted result."""
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)
    min_gain = 0 if zero_gain else 1

    with observe.span("rw.match", "stage"):
        candidates = _match_stage(working, machine, min_gain)
    observe.count("rw.candidates", len(candidates))
    with observe.span("rw.replace", "stage"):
        replaced, insert_works, host_work = _replace_stage(
            working, candidates, machine, min_gain
        )
        machine.launch("rw.insert", insert_works or [0])
        machine.host("rw.replace_seq", host_work)
    observe.count("rw.replaced", len(replaced))

    view_alias = replaced  # alias map produced by the commit loop
    if run_cleanup:
        result = dedup_and_dangling(working, view_alias, machine)
    else:
        result, _ = working.compact(resolve=view_alias)
        machine.launch_batch(
            "rw.compact",
            backend.const_profile(1, max(result.num_ands, 1)),
        )
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={
            "candidates": len(candidates),
            "replaced": len(view_alias),
        },
    )


@register_command("rw", "gpu", description="parallel rewriting")
def _bind_rw(invocation: PassInvocation) -> list[PassResult]:
    return [
        par_rewrite(
            invocation.aig, zero_gain=False, machine=invocation.machine
        )
    ]


@register_command("rwz", "gpu", description="parallel rewriting x2")
def _bind_rwz(invocation: PassInvocation) -> list[PassResult]:
    # Two passes per rwz command (paper: "GPU resyn2 (rwz x2)").
    first = par_rewrite(
        invocation.aig, zero_gain=True, machine=invocation.machine
    )
    second = par_rewrite(
        first.aig, zero_gain=True, machine=invocation.machine
    )
    return [first, second]


def _match_stage(
    aig: Aig, machine: ParallelMachine, min_gain: int
) -> dict[int, tuple]:
    """Kernel: best rewriting candidate per node on the static graph.

    Returns ``{root: (leaves, transform, template, est_gain)}`` for the
    nodes whose best candidate meets the gain threshold.  Every
    (root, cut) item is independent on the *static* graph: the cut
    enumeration carries composed truth tables and cone sets bottom-up
    (:func:`~repro.aig.cuts.enumerate_cuts_with_tables`), library
    matches are memoized per distinct (function, cut width), and the
    MFFC walk uses a local decrement map instead of mutating/restoring
    the shared counts.  Work is charged one unit per node plus
    ``CUT_EVAL_WORK`` per non-trivial cut, through one ``rw.match``
    kernel record.  At or above ``KERNEL_CUTOFF`` the winner selection
    runs batched (:func:`_match_select_batched`).
    """
    cuts, tables, cones = enumerate_cuts_with_tables(
        aig, REWRITE_CUT_SIZE, MAX_CUTS_PER_NODE
    )
    machine.launch(
        "rw.cut_enum",
        [len(cuts.get(var, ())) for var in aig.and_vars()],
    )
    if kernels.enabled_for(aig):
        return _match_select_batched(aig, machine, min_gain, cuts,
                                     tables, cones)
    nref = context_for(aig).fanout_counts()  # read-only here
    fan0 = aig._fanin0
    fan1 = aig._fanin1
    candidates: dict[int, tuple] = {}
    match_cache: dict[tuple[int, int], tuple] = {}
    works: list[int] = []

    for root in aig.and_vars():
        work = 1
        best = None
        for cut, table, cone in zip(cuts[root], tables[root], cones[root]):
            if len(cut) < 2:
                continue
            work += CUT_EVAL_WORK
            if len(cone) > 64:
                # The scalar cone walk rejects blown-up cones.
                continue
            key = (table, len(cut))
            hit = match_cache.get(key)
            if hit is None:
                transform, template = match_function(table, list(cut))
                hit = (transform, template, template.num_ands)
                match_cache[key] = hit
            transform, template, template_ands = hit
            # The MFFC is a subset of the cone (root included, leaves
            # excluded), so ``len(cone) - template_ands`` bounds the
            # gain.  Ties never replace the incumbent, and a best below
            # ``min_gain`` is discarded, so cuts whose bound cannot
            # strictly beat the incumbent — or reach the threshold at
            # all — can skip the walk without changing the outcome.
            bound = len(cone) - template_ands
            if bound < min_gain:
                continue
            if best is not None and bound <= best[3]:
                continue
            # MFFC size: nodes whose references all come from inside
            # the cone — deref_cone without touching shared ``nref``.
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
                    if nref[fvar] == count and fvar in cone:
                        stack.append(fvar)
            est_gain = len(deleted) - template_ands
            if best is None or est_gain > best[3]:
                best = (list(cut), transform, template, est_gain)
        if best is not None and best[3] >= min_gain:
            candidates[root] = best
        works.append(work)

    machine.launch("rw.match", works)
    return candidates


def _match_select_batched(
    aig: Aig,
    machine: ParallelMachine,
    min_gain: int,
    cuts: dict,
    tables: dict,
    cones: dict,
) -> dict[int, tuple]:
    """Column-native winner selection for the match stage.

    Replaces the per-item Python MFFC walk of :func:`_match_stage`
    with one batched decrement-fixpoint sweep
    (:func:`~repro.algorithms.kernels.rewrite_batched_mffc`).  Every
    (root, cut) item whose gain bound reaches ``min_gain`` is sized;
    the scalar loop sizes only items whose bound also beats the
    incumbent best, but since the true gain never exceeds the bound, a
    skipped item can never have been a new strict maximum — so taking
    each root's **earliest strict running maximum** over the batched
    gains reproduces the scalar winner (and its tie-breaks) exactly.
    Works, library-match caching and the candidate order are charged
    and built in the scalar scan order.
    """
    nref = context_for(aig).fanout_counts_array()  # read-only here
    match_cache: dict[tuple[int, int], tuple] = {}
    works: list[int] = []
    # Per-root eligible items in scan order:
    # (cut_list, transform, template, template_ands, bound, cone).
    per_root: list[tuple[int, list[tuple]]] = []

    for root in aig.and_vars():
        work = 1
        eligible: list[tuple] = []
        for cut, table, cone in zip(cuts[root], tables[root], cones[root]):
            if len(cut) < 2:
                continue
            work += CUT_EVAL_WORK
            if len(cone) > 64:
                # The scalar cone walk rejects blown-up cones.
                continue
            key = (table, len(cut))
            hit = match_cache.get(key)
            if hit is None:
                transform, template = match_function(table, list(cut))
                hit = (transform, template, template.num_ands)
                match_cache[key] = hit
            transform, template, template_ands = hit
            bound = len(cone) - template_ands
            if bound < min_gain:
                continue
            eligible.append((cut, transform, template, template_ands,
                             bound, cone))
        if eligible:
            per_root.append((root, eligible))
        works.append(work)

    # Wave w sizes every root's w-th still-interesting item at once:
    # per root the items stay in scan order across waves, and the
    # bound-vs-incumbent prune uses the best settled by wave w - 1 —
    # exactly the scalar control flow, batched across roots.
    best: dict[int, tuple] = {}
    active = per_root
    wave = 0
    while active:
        batch_roots: list[int] = []
        batch_cones: list = []
        batch_meta: list[tuple] = []
        for root, eligible in active:
            item = eligible[wave]
            incumbent = best.get(root)
            if incumbent is not None and item[4] <= incumbent[3]:
                continue
            batch_roots.append(root)
            batch_cones.append(item[5])
            batch_meta.append((root, item))
        if batch_roots:
            if observe.enabled:
                observe.count("kernels.rw_waves")
                observe.count("kernels.rw_sized_items", len(batch_roots))
            sizes = kernels.rewrite_batched_mffc(
                aig, nref, batch_roots, batch_cones
            )
            for (root, item), size in zip(batch_meta, sizes.tolist()):
                est_gain = size - item[3]
                incumbent = best.get(root)
                if incumbent is None or est_gain > incumbent[3]:
                    best[root] = (list(item[0]), item[1], item[2],
                                  est_gain)
        wave += 1
        active = [entry for entry in active if len(entry[1]) > wave]

    candidates: dict[int, tuple] = {}
    for root, _ in per_root:
        winner = best.get(root)
        if winner is not None and winner[3] >= min_gain:
            candidates[root] = winner

    machine.launch("rw.match", works)
    return candidates


def _replace_stage(
    aig: Aig,
    candidates: dict[int, tuple],
    machine: ParallelMachine,
    min_gain: int,
) -> tuple[dict[int, int], list[int], int]:
    """Sequential keep/delete evaluation over the candidate pairs.

    Walks the candidates in topological order, re-evaluating each on
    the current (partially rewritten) graph and committing exactly like
    the sequential pass.  Returns (alias map, per-commit insertion
    works, host work units).
    """
    view = AliasView(aig)
    nref = resolved_fanout_counts(view)
    # Committed MFFCs must never overlap: a cone reaching a node an
    # earlier commit deleted means the bookkeeping (alias resolution,
    # staleness filters) let two replacements race on the same logic.
    guard = sanitizer.batch("rw.replace")
    insert_works: list[int] = []
    # The sequential pass walks the whole node array in topological
    # order to find the inserted cone pairs — one unit per node scanned
    # ([9]'s replacement loop), plus the per-pair evaluation below.
    host_work = aig.num_ands

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
            if rvar in view.dead:
                stale = True
                break
            if rvar not in seen:
                seen.add(rvar)
                resolved_leaves.append(rvar)
        if stale or len(resolved_leaves) < 2 or root in seen:
            host_work += 2
            continue
        resolved_leaves.sort()
        try:
            cone = _cone_nodes(view, root, seen)
            table = simulate_cone(
                view, make_lit(root), resolved_leaves
            )
        except ValueError:
            host_work += 4
            continue
        # Re-match when resolution changed the cut's function.
        transform, template = match_function(table, resolved_leaves)
        deleted = deref_cone(view, root, cone, nref)
        leaf_lits = [make_lit(var) for var in resolved_leaves]
        gain, created = apply_replacement(
            view,
            nref,
            root,
            deleted,
            lambda add_and: instantiate_template(
                template, transform, leaf_lits, add_and
            ),
            min_gain,
            flip_mutation="rw-flip-root",
        )
        host_work += len(deleted) + 4
        if gain is None:
            continue
        insert_works.append(created + 1)
        if sanitizer.enabled:
            # Committed MFFC = this lane's write footprint.
            Footprint(deleted).register(guard, root)

    return view.alias, insert_works, host_work
