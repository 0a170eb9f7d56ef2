"""GPU-parallel refactoring (paper, Section III).

The pass runs in three stages:

1. **Collapsing** (III-B a): partition the AIG into disjoint fanout-free
   cones, level-wise from POs to PIs, via the shared cone-collection
   helpers :class:`~repro.algorithms.common.ConeJob` and
   :func:`~repro.algorithms.common.collapse_into_ffcs`.  One thread
   per frontier root runs a best-first intra-cone traversal that only
   expands nodes whose every fanout already lies inside the cone (the
   FFC condition) and early-stops at the maximum cut size; cut nodes
   become the next frontier.  Theorem 1 guarantees the cones are
   pairwise disjoint — the implementation asserts it with an owner map.
2. **Resynthesis** (III-B b): one thread per cone computes the cone
   function's truth table, ISOP and factored form; the *gain lower
   bound* (III-D) — deleted nodes minus new-cone size, logic sharing
   among new cones ignored — filters out negative-gain cones.
   Zero-gain replacements are always accepted, as in the paper.
3. **Replacement** (III-B b): a parallel hash table is seeded with all
   surviving nodes; the new cones are inserted through sharing-aware
   node creation, one node per cone per synchronized insertion round
   (Figure 1d–1e); finally every old root is redirected to its new root
   literal and the graph is compacted.

``replace_mode="sequential"`` charges the whole replacement stage to
the host instead of to kernels — the "rf with sequential replace"
configuration of Table I, i.e. what adopting GPU rewriting's [9]
replacement step would cost.
"""

from __future__ import annotations

from repro import observe
from repro.aig.aig import Aig
from repro.aig.cuts import _PAIR_TABLES, DEFAULT_CUT_SIZE
from repro.aig.literals import lit_compl, lit_not_cond, lit_var, make_lit
from repro.algorithms import kernels
from repro.algorithms.common import (
    ConeJob,
    PassResult,
    collapse_into_ffcs,
)
from repro.algorithms.dedup import dedup_and_dangling
from repro.commit import CommitEngine, Footprint, RewritePlan
from repro.engine.context import clone_with_context, context_for
from repro.logic.resyn import plan_resynthesis
from repro.logic.truth import simulate_cone
from repro.parallel import backend
from repro.parallel.machine import ParallelMachine

__all__ = ["par_refactor"]


def par_refactor(
    aig: Aig,
    max_cut_size: int = DEFAULT_CUT_SIZE,
    machine: ParallelMachine | None = None,
    replace_mode: str = "parallel",
) -> PassResult:
    """One pass of parallel refactoring; returns the compacted result."""
    if replace_mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown replace_mode {replace_mode!r}")
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)

    with observe.span("rf.collapse", "stage"):
        cones = collapse_into_ffcs(working, max_cut_size, machine)
    observe.count("rf.cones_collapsed", len(cones))
    with observe.span("rf.resynthesize", "stage"):
        _resynthesize(working, cones, machine)
    kept = [job for job in cones if job.gain is not None and job.gain >= 0]
    # Gain filtering is a parallel stream compaction (Figure 1b).
    machine.launch_batch(
        "rf.filter", backend.const_profile(1, max(len(cones), 1))
    )
    with observe.span("rf.refine", "stage"):
        refined = _semi_sharing_refine(working, cones, kept, machine)
    observe.count("rf.cones_refined", len(refined))
    kept += refined
    observe.count("rf.cones_replaced", len(kept))
    with observe.span("rf.replace", "stage"):
        alias = _replace(working, kept, machine, replace_mode)

    # Host post-processing: assembling the replacement list and
    # resolving the outputs — the only sequential part of the proposed
    # framework (Table I's "rf (proposed)" row).
    machine.host("rf.postprocess", len(kept) + working.num_pos)
    result = dedup_and_dangling(working, alias, machine)
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={
            "cones": len(cones),
            "replaced": len(kept),
        },
    )


# ----------------------------------------------------------------------
# Stage 2: resynthesis and gain filtering
# ----------------------------------------------------------------------


def _resynthesize(
    aig: Aig, cones: list[ConeJob], machine: ParallelMachine
) -> None:
    """Resynthesize every cone; compute the gain lower bound (III-D).

    Plans come from the run-scoped cache of
    :func:`~repro.logic.resyn.plan_resynthesis` and carry their template
    AIG (the new cone over symbolic leaves, linearized for
    one-node-per-round insertion), so identical cone functions share
    one plan and one template, read-only.  Each kernel thread is still
    charged the plan's full work: on the real GPU every thread
    recomputes its cone.
    """
    fan0 = aig._fanin0
    fan1 = aig._fanin1

    def process(job: ConeJob) -> tuple[None, int]:
        cut = job.cut
        leaves = sorted(cut.leaves)
        tt_work = len(cut.cone) * max(1, (1 << len(leaves)) >> 6)
        if len(cut.cone) == 1 and len(leaves) == 2:
            # Single-node cone: the cut is exactly the root's fanin
            # pair, so its function is one of the eight precomputed
            # 2-input AND tables (same lookup the composed-table cut
            # enumeration uses) — no cone simulation needed.
            f0 = fan0[cut.root]
            f1 = fan1[cut.root]
            index = (
                (((f0 >> 1) > (f1 >> 1)) << 2)
                | ((f0 & 1) << 1)
                | (f1 & 1)
            )
            table = _PAIR_TABLES[index]
        else:
            table = simulate_cone(aig, make_lit(cut.root), leaves)
        plan = plan_resynthesis(table, len(leaves))
        if plan is None:
            # SOP blow-up: cone filtered from replacement.
            job.gain = None
            return None, tt_work
        job.plan = plan
        job.template = plan.template
        # New-cone nodes are counted without sharing among new cones:
        # the lower-bound gain of Section III-D (intra-cone sharing,
        # which one thread sees locally, is included).
        job.gain = len(cut.cone) - job.template.num_ands
        return None, tt_work + plan.work

    machine.kernel("rf.resynthesize", cones, process)


def _semi_sharing_refine(
    aig: Aig,
    cones: list[ConeJob],
    kept: list[ConeJob],
    machine: ParallelMachine,
) -> list[ConeJob]:
    """Semi-sharing-aware gain refinement (Section III-D).

    The plain gain lower bound ignores all sharing; the paper's
    evaluation additionally counts sharing between a new cone and the
    nodes initialized in the hash table (the survivors).  Cones whose
    no-share gain was negative are re-evaluated against the survivor
    set implied by the first-round decision: template nodes whose fanin
    pair already exists among survivors cost nothing.  Cones whose
    refined gain is non-negative join the replacement set.
    """
    replaced_nodes: set[int] = set()
    for job in kept:
        replaced_nodes.update(job.cut.cone)
    survivor_keys = kernels.refactor_survivor_keys(aig, replaced_nodes)

    rejected = [
        job for job in cones if job.gain is not None and job.gain < 0
    ]

    def refine(job: ConeJob) -> tuple[int, int]:
        """Semi-sharing gain of ``job`` vs the current survivor keys."""
        template = job.template
        leaf_lits = [make_lit(var) for var in sorted(job.cut.leaves)]
        lit_map: dict[int, int | None] = {0: 0}
        for t_var, lit in zip(template.pis, leaf_lits):
            lit_map[t_var] = lit
        count_new = 0
        work = 1
        for t_var in template.and_vars():
            f0, f1 = template.fanins(t_var)
            n0 = lit_map[lit_var(f0)]
            n1 = lit_map[lit_var(f1)]
            if n0 is None or n1 is None:
                count_new += 1
                lit_map[t_var] = None
                continue
            key0 = lit_not_cond(n0, lit_compl(f0))
            key1 = lit_not_cond(n1, lit_compl(f1))
            if key0 > key1:
                key0, key1 = key1, key0
            work += 1
            hit = survivor_keys.get((key0, key1))
            if hit is None:
                count_new += 1
                lit_map[t_var] = None
            else:
                lit_map[t_var] = make_lit(hit)
        return len(job.cut.cone) - count_new, work

    def drop_keys(job: ConeJob) -> None:
        for var in job.cut.cone:
            key = aig.fanins(var)
            if survivor_keys.get(key) == var:
                del survivor_keys[key]

    def restore_keys(job: ConeJob) -> None:
        for var in job.cut.cone:
            survivor_keys.setdefault(aig.fanins(var), var)

    # Accept incrementally: once a cone joins the replacement set its
    # old nodes stop providing sharing credit to later evaluations.
    accepted: list[ConeJob] = []
    works = []
    for job in rejected:
        gain, work = refine(job)
        works.append(work)
        if gain >= 0:
            job.gain = gain
            accepted.append(job)
            drop_keys(job)
    machine.launch("rf.gain_semi", works or [0])
    # Verification sweep: earlier acceptances may have credited sharing
    # with nodes a later acceptance deleted; re-check against the final
    # survivor set until stable so the no-area-increase guarantee of
    # Section III-D holds exactly.
    while True:
        dropped = False
        verify_works = []
        for job in list(accepted):
            gain, work = refine(job)
            verify_works.append(work)
            if gain < 0:
                accepted.remove(job)
                restore_keys(job)
                dropped = True
            else:
                job.gain = gain
        machine.launch("rf.gain_verify", verify_works or [0])
        if not dropped:
            break
    return accepted


# ----------------------------------------------------------------------
# Stage 3: replacement
# ----------------------------------------------------------------------


def _replace(
    aig: Aig,
    kept: list[ConeJob],
    machine: ParallelMachine,
    replace_mode: str,
) -> dict[int, int]:
    """Insert the kept new cones and redirect their old roots.

    Returns the alias map (old root variable -> new root literal).
    The whole stage runs as parallel kernels in ``"parallel"`` mode; in
    ``"sequential"`` mode the identical work is charged to the host,
    modeling the replacement step of GPU rewriting [9].

    Each kept cone becomes one :class:`~repro.commit.RewritePlan`
    whose write footprint is the whole member set — Theorem 1
    guarantees the cones are pairwise disjoint, so the wave commits
    without conflict resolution (no read footprints needed; leaf reads
    are synchronized by the level-wise protocol).
    """
    parallel = replace_mode == "parallel"

    def account(name: str, works: list[int]) -> None:
        if parallel:
            machine.launch(name, works)
        else:
            machine.host(name, sum(works))

    engine = CommitEngine(
        aig,
        machine,
        "rf",
        account=account,
        root_flip_mutation="rf-flip-root",
        pad_delete=False,
    )
    plans = [
        RewritePlan(
            job.cut.root,
            sorted(job.cut.leaves),
            job.template,
            Footprint(job.cut.cone),
            gain=job.gain,
            tag=job,
        )
        for job in kept
    ]
    return engine.commit_wave(plans)
