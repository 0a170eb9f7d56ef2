"""Conflict-breaking parallel refactoring (the ``rfc`` command).

``rf`` (:mod:`repro.algorithms.par_refactor`) buys race freedom from
Theorem 1: each level-wise round only admits pairwise-disjoint
fanout-free cones, so every commit is trivially safe — but on deep
AIGs the FFC boundary stops cones at the first multi-fanout node,
which starves the machine (many rounds, few nodes per cone).  This
pass lifts the restriction following "Parallel AIG Refactoring via
Conflict Breaking" (PAPERS.md): candidate cones are *plain*
reconvergence-driven cuts that freely cross fanout boundaries, so
they overlap, and safety moves from admission time to commit time.

The pipeline:

1. **Collect**: level-wise from the POs, one thread per frontier root
   grows the unrestricted reconvergence cut of sequential refactoring
   (:func:`~repro.aig.cuts.reconv_cut` without the FFC predicate), and
   every member of an admitted cone becomes a further root of the
   *same* round — covering, in one round, both the multi-fanout sites
   where ``rf``'s FFC boundary forces a new round and the interior
   sites only the sequential sweep would visit.  The cut leaves seed
   the next frontier, so it descends a whole cut per round: many more
   cones per round, far fewer rounds than ``rf`` (the ``rfc.rounds``
   / ``rfc.cones_admitted`` counters report it; cones are lane *read*
   footprints, since overlapping reads are legal).
2. **Prune + resynthesize**: each cone's deletable set is its
   cone-restricted MFFC (the nodes whose every reference dies with
   the root — computed batched by
   :func:`repro.algorithms.kernels.refactor_deleted_sets`).  An
   ELF-style gain bound (PAPERS.md) extends the MFFC prune: any AND
   implementation of a function with ``s`` essential support
   variables needs at least ``s - 1`` nodes, so a cone deleting
   fewer than that cannot win *without sharing* and skips
   ISOP/factoring in the parallel stage.  Survivors are resynthesized
   exactly like ``rf``; a depth guard (an exact DP over the template)
   rejects any replacement that would raise the root's level, which
   makes "never deeper than the input" a structural guarantee of the
   pass.
3. **Resolve**: a deterministic commit-time conflict resolver orders
   the non-negative-gain candidates by (gain desc, root var asc) — a
   total order, so the outcome is independent of collection order —
   and greedily admits a candidate into the parallel *wave* unless
   its deletable set or leaf reads overlap an admitted commit
   (write-write or write-read in either direction).  Losers are
   *broken conflicts* (``rfc.conflicts_broken``) and fall back to the
   serial lane.
4. **Commit**: the wave lands through the batched commit path of
   :mod:`repro.commit` (delete, seed survivor table, one
   node per cone per synchronized round, redirect roots), with each
   lane registering its deletable-set write and leaf-read footprints.
   The serial lane then replays the broken conflicts *and* every cone
   the parallel stage rejected (nominal gain and the ELF bound are
   blind to sharing; the sequential commit discipline of
   :func:`repro.algorithms.seq_refactor._try_replace` measures the
   real cost against the strash, with level caps enforcing the depth
   guarantee) on the partially rewritten graph — host-charged,
   exactly the part the resolver could not parallelize.

Two QoR properties hold by construction: every commit has a real
(sharing-aware) gain of at least zero, so the AND count never
increases; and both lanes enforce the root-level depth guard, so the
depth never increases.  ``tests/test_refactor_conflict.py`` asserts
both, plus equivalence and resolver determinism.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.aig.aig import Aig, resolve_aliases
from repro.aig.cuts import DEFAULT_CUT_SIZE, reconv_cut
from repro.aig.literals import lit_var, make_lit
from repro.algorithms import kernels
from repro.algorithms.common import AliasView, ConeJob, PassResult
from repro.algorithms.dedup import dedup_and_dangling
from repro.algorithms.seq_refactor import _try_replace
from repro.commit import (
    CommitEngine,
    Footprint,
    RewritePlan,
    retire_unreachable,
)
from repro.engine.context import (
    clone_with_context,
    context_for,
    resolved_fanout_counts,
    resolved_levels,
)
from repro.logic.resyn import plan_resynthesis
from repro.logic.truth import simulate_cone, tt_support
from repro.parallel.frontier import gather_unique
from repro.parallel.machine import ParallelMachine
from repro.verify import sanitizer


def par_refactor_cb(
    aig: Aig,
    max_cut_size: int = DEFAULT_CUT_SIZE,
    machine: ParallelMachine | None = None,
    candidate_permutation_seed: int | None = None,
) -> PassResult:
    """One pass of conflict-breaking refactoring; returns the result.

    ``candidate_permutation_seed`` is a test hook: when set, the kept
    candidates are shuffled with that seed before conflict resolution.
    The resolver sorts by a total order, so the output must be
    bit-identical for every seed — the determinism property the
    safety-net test asserts.
    """
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)

    with observe.span("rfc.collect", "stage"):
        cones, rounds = _collect_overlapping(working, max_cut_size, machine)
    observe.count("rfc.rounds", rounds)
    observe.count("rfc.cones_admitted", len(cones))
    with observe.span("rfc.resynthesize", "stage"):
        _deletable_sets(working, cones, machine)
        pruned = _resynthesize(working, cones, machine)
    observe.count("rfc.pruned_bound", pruned)
    kept = [job for job in cones if job.gain is not None and job.gain >= 0]
    # Cones the parallel stage rejected are not dead: the nominal gain
    # and the ELF bound both ignore sharing, so every non-trivial
    # rejected cone queues for the serial lane, where the sequential
    # commit discipline re-measures it against the real strash (rf
    # solves the same blindness with its semi-sharing refine).  Id
    # order mirrors the sequential pass's topological sweep.
    kept_roots = {job.cut.root for job in kept}
    retry = sorted(
        (
            job
            for job in cones
            if job.cut.root not in kept_roots
            and len(job.cut.cone) >= 2
            and len(job.cut.leaves) >= 2
        ),
        key=lambda job: job.cut.root,
    )
    # Gain filtering is a parallel stream compaction (Figure 1b).
    machine.launch_uniform("rfc.filter", 1, max(len(cones), 1))
    # Kept candidates become declarative plans: deletable set = write
    # footprint, leaves = read footprint; the engine's resolver applies
    # the conflict-breaking rules and the wave lands through the shared
    # batched commit path.
    engine = CommitEngine(
        working, machine, "rfc", insert_mutation="rfc-stale-fanin"
    )
    plans = [
        RewritePlan(
            job.cut.root,
            sorted(job.cut.leaves),
            job.template,
            Footprint(job.deleted, job.cut.leaves),
            gain=job.gain,
            tag=job,
        )
        for job in kept
    ]
    with observe.span("rfc.resolve", "stage"):
        wave, serial = engine.resolve(
            plans,
            permutation_seed=candidate_permutation_seed,
            drop_mutation="rfc-drop-conflict",
        )
    observe.count("rfc.conflicts_broken", len(serial))
    observe.count("rfc.wave_commits", len(wave))
    with observe.span("rfc.replace", "stage"):
        alias = engine.commit_wave(wave)
        final_alias, serial_committed = _commit_serial(
            working,
            [plan.tag for plan in serial] + retry,
            alias,
            machine,
            max_cut_size,
        )
    observe.count("rfc.serial_commits", serial_committed)
    observe.count("rfc.retry_cones", len(retry))

    # Host post-processing: replacement list assembly and PO
    # resolution, as in ``rf``.
    machine.host("rfc.postprocess", len(wave) + working.num_pos)
    result = dedup_and_dangling(working, final_alias, machine)
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={
            "cones": len(cones),
            "rounds": rounds,
            "wave": len(wave),
            "serial": len(serial),
            "retried": len(retry),
            "replaced": len(wave) + serial_committed,
        },
    )


# ----------------------------------------------------------------------
# Stage 1: overlapping candidate collection
# ----------------------------------------------------------------------


def _collect_overlapping(
    aig: Aig, max_cut_size: int, machine: ParallelMachine
) -> tuple[list[ConeJob], int]:
    """Collect overlapping reconvergence cones, level-wise from POs.

    Returns ``(cones, rounds)``.  No FFC predicate restricts the cut
    growth, so cones cross multi-fanout boundaries and may overlap —
    each cone registers its member set as a lane *read* footprint
    (overlapping reads across lanes are legal; writes are declared at
    commit time by the resolver's wave).

    Admission is transitive within a round: every member of an admitted
    cone becomes an additional root of the same round.  That roots the
    pass at a superset of both ``rf``'s candidate sites (the
    multi-fanout FFC boundaries, where ``rf`` must spend a whole new
    level-wise round) and the sequential pass's full node sweep, while
    the frontier descends a whole cut (not a whole FFC) per round —
    many more cones per round, far fewer rounds.
    """
    frontier, gather_work = gather_unique(
        (lit_var(lit) for lit in aig.pos), keep=aig.is_and
    )
    machine.launch_uniform("rfc.init_frontier", 1, max(gather_work, 1))
    rooted = set(frontier)
    cones: list[ConeJob] = []
    rounds = 0
    guard = sanitizer.batch("rfc.collect")
    while frontier:
        rounds += 1
        works = []
        candidates: list[int] = []
        queue = list(frontier)
        index = 0
        while index < len(queue):
            root = queue[index]
            index += 1
            cut = reconv_cut(aig, root, max_cut_size)
            works.append(cut.work)
            if sanitizer.enabled:
                guard.read(root, cut.cone)
            cones.append(ConeJob(cut))
            candidates.extend(cut.leaves)
            for member in sorted(cut.cone):
                if member in rooted:
                    continue
                rooted.add(member)
                queue.append(member)
        machine.launch("rfc.collect", works)
        frontier, gather_work = gather_unique(
            candidates,
            keep=lambda var: aig.is_and(var) and var not in rooted,
        )
        rooted.update(frontier)
        machine.launch_uniform(
            "rfc.gather_frontier", 1, max(len(candidates), 1)
        )
    return cones, rounds


# ----------------------------------------------------------------------
# Stage 2: deletable sets, ELF bound prune, resynthesis
# ----------------------------------------------------------------------


def _deletable_sets(
    aig: Aig, cones: list[ConeJob], machine: ParallelMachine
) -> None:
    """Fill ``job.deleted``: each cone's cone-restricted MFFC.

    Overlapping cones cannot delete their whole member set — a member
    with readers outside the deletable set must survive.  Every set
    comes from one batched fixpoint
    (:func:`~repro.algorithms.kernels.refactor_deleted_sets`), with the
    semantics of :func:`~repro.commit.deref_cone` run per cone on
    pristine fanout counts; each cone is charged its member count.
    """
    if not cones:
        return
    machine.launch_uniform("rfc.ref_index", 1, max(aig.num_vars, 1))
    sets = kernels.refactor_deleted_sets(
        aig,
        context_for(aig).fanout_counts_array(),
        [job.cut.root for job in cones],
        [job.cut.cone for job in cones],
    )
    for job, deleted in zip(cones, sets):
        job.deleted = deleted
    machine.launch("rfc.deref", [len(job.cut.cone) for job in cones])


def _resynthesize(
    aig: Aig, cones: list[ConeJob], machine: ParallelMachine
) -> int:
    """Resynthesize the surviving cones; returns the pruned count.

    Mirrors ``rf``'s resynthesis kernel (cached plans and templates,
    shared read-only and charged in full), with the ELF bound in
    front: a function with ``s`` essential support variables needs at
    least ``s - 1`` AND nodes, so cones whose deletable set is smaller
    are provably non-winning and skip planning entirely.
    """
    pruned = 0
    levels = context_for(aig).levels()

    def template_depth(template: Aig, leaves: list[int]) -> int:
        """Exact post-commit level of the template's root.

        Level is a pure function of structure, so the DP over the
        (pristine) leaf levels equals the inserted root's real level —
        strash hits included, since a hit shares the same fanins.
        """
        depth_map = {0: 0}
        for t_var, leaf in zip(template.pis, leaves):
            depth_map[t_var] = levels[leaf]
        for t_var in template.and_vars():
            f0, f1 = template.fanins(t_var)
            depth_map[t_var] = 1 + max(
                depth_map[lit_var(f0)], depth_map[lit_var(f1)]
            )
        return depth_map[lit_var(template.pos[0])]

    def process(job: ConeJob) -> tuple[None, int]:
        nonlocal pruned
        cut = job.cut
        if len(cut.cone) < 2 or len(cut.leaves) < 2:
            job.gain = None  # nothing to restructure
            return None, 1
        leaves = sorted(cut.leaves)
        tt_work = len(cut.cone) * max(1, (1 << len(leaves)) >> 6)
        table = simulate_cone(aig, make_lit(cut.root), leaves)
        support = len(tt_support(table, len(leaves)))
        if len(job.deleted) < support - 1:
            # ELF bound: even a tree over the essential support beats
            # what this cone can delete — provably non-winning.
            pruned += 1
            job.gain = None
            return None, tt_work + len(leaves)
        plan = plan_resynthesis(table, len(leaves))
        if plan is None:
            job.gain = None  # SOP blow-up: leave untouched
            return None, tt_work + len(leaves)
        template = plan.template
        template_ands = template.num_ands
        job.plan = plan
        job.template = template
        # ``template_ands`` charges the depth-guard DP.
        work = tt_work + len(leaves) + plan.work + template_ands
        if template_depth(template, leaves) > levels[cut.root]:
            job.gain = None  # depth guard: capped serial lane only
            return None, work
        job.gain = len(job.deleted) - template_ands
        return None, work

    machine.kernel("rfc.resynthesize", cones, process)
    return pruned


# ----------------------------------------------------------------------
# Stage 3+4: wave commit via repro.commit + broken conflicts (serial)
# ----------------------------------------------------------------------
#
# Conflict resolution and the parallel wave commit live in
# :class:`repro.commit.CommitEngine` (the resolver's total order and
# footprint rules originated here and are unit-tested in
# ``tests/test_commit_engine.py``); only the serial replay lane below
# remains pass-specific.


def _commit_serial(
    aig: Aig,
    serial: list[ConeJob],
    alias: dict[int, int],
    machine: ParallelMachine,
    max_cut_size: int,
) -> tuple[dict[int, int], int]:
    """Replay the broken conflicts one by one on the rewritten graph.

    Each deferred root re-runs the sequential commit discipline
    (fresh cut, truth table, plan, cone-restricted MFFC transfer) on an
    alias view of the post-wave graph, in resolver order — the only
    host-serialized part of the pass, charged as such.  Returns the
    final alias map and the number of serial commits that still paid
    off.
    """
    if not serial:
        return alias, 0
    view = AliasView(aig)
    view.alias.update(alias)
    # Retire unreachable survivors before anything strashes: a hit on a
    # dangling node would dodge the level caps below, and compaction
    # drops those nodes anyway.  ``resolved_levels`` doubles as the
    # reachability map and the cap seed (actual current levels).
    final = resolve_aliases(view.alias, aig.num_vars)
    levels, _ = resolved_levels(aig, final)
    retire_unreachable(view, levels)
    reached = np.flatnonzero(levels >= 0)
    caps = dict(zip(reached.tolist(), levels[reached].tolist()))
    machine.host("rfc.serial_prep", aig.num_vars)
    nref = resolved_fanout_counts(aig, final).tolist()
    nref.extend([0] * 16)  # slack; grown as nodes are added
    committed = 0
    for job in serial:
        root = job.cut.root
        if not view.is_and(root) or root in view.alias:
            continue
        if root >= len(nref) or nref[root] == 0:
            continue  # became dangling after an earlier commit
        gain, work = _try_replace(
            view, nref, root, max_cut_size, 0, level_cap=caps
        )
        machine.host("rfc.serial_commit", work)
        if gain is not None:
            committed += 1
    return view.alias, committed
