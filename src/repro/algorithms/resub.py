"""Resubstitution — the paper's future work, implemented both ways.

The paper closes with "parallelizing more logic optimization algorithms
such as resubstitution" as future work.  This module provides:

* :func:`seq_resub` — classic windowed resubstitution [5]: for each
  node, try to re-express its function over an existing *divisor* (or a
  single AND/OR of two divisors) drawn from its reconvergence window;
  on success the node's MFFC collapses to nothing (0-resub) or to one
  fresh node (1-resub).
* :func:`par_resub` — the same optimization inside the paper's
  data-race-free framework: the AIG is partitioned into disjoint
  fanout-free cones by the refactoring collapse stage, each cone is
  resubstituted independently (divisors restricted to the cone's own
  nodes and cut leaves, so no thread ever references logic another
  thread may delete), and replacements are applied in parallel exactly
  like Section III-B's replacement stage.

Divisor matching is truth-table based over the window cut: a 0-resub is
a divisor equal to the target (either polarity); a 1-resub is a pair of
divisors whose AND (either polarities, optionally output-complemented —
the OR case by De Morgan) equals it.
"""

from __future__ import annotations

from typing import Callable

from repro.aig.aig import Aig
from repro.aig.cuts import CutResult, reconv_cut
from repro.aig.literals import lit_compl, lit_var, make_lit
from repro.algorithms.common import (
    AliasView,
    PassResult,
    RefCounts,
    collapse_into_ffcs,
    resolved_fanout_counts,
)
from repro.algorithms.dedup import dedup_and_dangling
from repro.commit import commit_replacement, deref_cone, ref_cone_back
from repro.engine.context import clone_with_context, context_for
from repro.engine.registry import (
    PassInvocation,
    register_command,
    register_pass,
)
from repro.logic.truth import full_mask
from repro.parallel.machine import ParallelMachine, SeqMeter

#: Default window cut size (kept below refactoring's 12: windows are
#: evaluated pairwise, so narrower truth tables pay off).
RESUB_CUT_SIZE = 8

#: Cap on divisors considered per window.
MAX_DIVISORS = 40


class ResubMatch:
    """A successful divisor match for one root."""

    __slots__ = ("kind", "lit_a", "lit_b", "out_neg")

    def __init__(
        self, kind: str, lit_a: int, lit_b: int = 0, out_neg: bool = False
    ) -> None:
        self.kind = kind  # "zero" or "one"
        self.lit_a = lit_a
        self.lit_b = lit_b
        self.out_neg = out_neg


def find_resub(
    view,
    root: int,
    leaves: list[int],
    cone: set[int],
    max_divisors: int = MAX_DIVISORS,
    side_candidates: list[int] | None = None,
) -> tuple[ResubMatch | None, int]:
    """Search the window for a 0- or 1-resubstitution of ``root``.

    ``view`` needs ``fanins``/``is_and``; divisors are the cut leaves,
    the cone's internal nodes (excluding the root), and any
    ``side_candidates`` — nodes *outside* the cone whose function over
    the same leaf basis is computable (their support already evaluated)
    — this is where resubstitution's power comes from: a side divisor
    that recomputes the root's function lets the whole cone go.  By
    construction everything a replacement may reference either survives
    deletion or is kept alive by the new reference itself.  Returns
    ``(match_or_None, work_units)``.
    """
    num_vars = len(leaves)
    mask = full_mask(num_vars)
    from repro.logic.truth import var_table

    tts: dict[int, int] = {0: 0}
    for position, leaf in enumerate(leaves):
        tts[leaf] = var_table(position, num_vars)
    # Alias resolution can point at higher ids, so id order is not a
    # topological order of the resolved cone: evaluate by dependency.
    work = num_vars
    order: list[int] = []
    for seed in cone:
        if seed in tts:
            continue
        stack = [seed]
        while stack:
            var = stack[-1]
            if var in tts:
                stack.pop()
                continue
            f0, f1 = view.fanins(var)
            pending = [
                lit_var(f) for f in (f0, f1) if lit_var(f) not in tts
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            t0 = tts[lit_var(f0)] ^ (mask if lit_compl(f0) else 0)
            t1 = tts[lit_var(f1)] ^ (mask if lit_compl(f1) else 0)
            tts[var] = t0 & t1
            order.append(var)
            work += 1
    # Side divisors: evaluate candidates (ascending id) whose resolved
    # support is already available; skip anything else.
    side: list[int] = []
    for var in side_candidates or ():
        if var in tts or not view.is_and(var):
            continue
        f0, f1 = view.fanins(var)
        if lit_var(f0) in tts and lit_var(f1) in tts:
            t0 = tts[lit_var(f0)] ^ (mask if lit_compl(f0) else 0)
            t1 = tts[lit_var(f1)] ^ (mask if lit_compl(f1) else 0)
            tts[var] = t0 & t1
            side.append(var)
            work += 1
    target = tts[root]
    divisors = [
        (make_lit(var), tts[var])
        for var in list(leaves) + side + [v for v in order if v != root]
    ][:max_divisors]

    # 0-resub: a single divisor matches (either polarity).
    for lit, table in divisors:
        work += 1
        if table == target:
            return ResubMatch("zero", lit), work
        if table == (target ^ mask):
            return ResubMatch("zero", lit ^ 1), work

    # 1-resub.  AND form: target = da & db — candidate polarities must
    # cover the target.  OR form: target = da | db, i.e. the complement
    # is an AND of complements.
    for out_neg, goal in ((False, target), (True, target ^ mask)):
        if goal == 0 or goal == mask:
            continue
        covering = []
        for lit, table in divisors:
            for polarity in (0, 1):
                cand = table ^ (mask if polarity else 0)
                work += 1
                if goal & ~cand == 0 and cand != mask:
                    covering.append((lit ^ polarity, cand))
        for index, (lit_a, table_a) in enumerate(covering):
            for lit_b, table_b in covering[index + 1 :]:
                work += 1
                if table_a & table_b == goal:
                    if lit_var(lit_a) == lit_var(lit_b):
                        continue
                    return (
                        ResubMatch("one", lit_a, lit_b, out_neg),
                        work,
                    )
    return None, work


@register_pass(
    "seq_resub", engine="seq", description="windowed resubstitution"
)
def seq_resub(
    aig: Aig,
    max_cut_size: int = RESUB_CUT_SIZE,
    max_divisors: int = MAX_DIVISORS,
    meter: SeqMeter | None = None,
) -> PassResult:
    """Sequential windowed resubstitution (topological, on the fly)."""
    meter = meter if meter is not None else SeqMeter()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)
    view = AliasView(working)
    nref = resolved_fanout_counts(view)
    original_limit = working.num_vars

    attempted = 0
    replaced = 0
    for root in range(original_limit):
        if not view.is_and(root) or root in view.alias or nref[root] == 0:
            continue
        attempted += 1
        cut = reconv_cut(view, root, max_cut_size)
        if len(cut.cone) < 2:
            meter.add(cut.work, "resub.node")
            continue
        # Side divisors: nearby earlier nodes outside the cone.  Ids
        # below the root are guaranteed outside the root's transitive
        # fanout, so no substitution can create a cycle.
        window_lo = min(cut.leaves, default=0)
        side = [
            var
            for var in range(window_lo + 1, root)
            if var not in cut.cone and var not in view.alias
        ][: 4 * max_divisors]
        match, work = find_resub(
            view, root, sorted(cut.leaves), cut.cone, max_divisors, side
        )
        meter.add(cut.work + work, "resub.node")
        if match is None:
            continue
        if _commit_resub(view, nref, root, cut.cone, match):
            replaced += 1

    result, _ = working.compact(resolve=view.alias)
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"attempted": attempted, "replaced": replaced},
    )


@register_command("rs", "seq", description="windowed resubstitution")
def _bind_rs_seq(invocation: PassInvocation) -> list[PassResult]:
    return [seq_resub(invocation.aig, meter=invocation.meter)]


@register_pass(
    "par_resub", engine="gpu", description="disjoint-FFC resubstitution"
)
def par_resub(
    aig: Aig,
    max_cut_size: int = RESUB_CUT_SIZE,
    max_divisors: int = MAX_DIVISORS,
    machine: ParallelMachine | None = None,
) -> PassResult:
    """Parallel resubstitution over the disjoint-FFC partition.

    Stage 1 reuses the refactoring collapse (Theorem 1 gives disjoint
    cones); stage 2 runs one divisor search per cone as a kernel; stage
    3 applies the accepted substitutions — each touches only its own
    cone plus already-shared survivors, so replacements are data-race
    free exactly as in Section III.
    """
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)

    cones = collapse_into_ffcs(working, max_cut_size, machine)
    view = AliasView(working)
    nref = resolved_fanout_counts(view)

    matches: list[tuple[CutResult, ResubMatch]] = []

    def search(job) -> tuple[None, int]:
        cut = job.cut
        if len(cut.cone) < 2:
            return None, 1
        match, work = find_resub(
            working, cut.root, sorted(cut.leaves), cut.cone, max_divisors
        )
        if match is not None:
            matches.append((cut, match))
        return None, work

    machine.kernel("resub.search", cones, search)

    works = []
    replaced = 0
    for cut, match in matches:
        before = len(view.dead)
        if _commit_resub(view, nref, cut.root, cut.cone, match):
            replaced += 1
        works.append(len(view.dead) - before + 1)
    machine.launch("resub.replace", works or [0])

    result = dedup_and_dangling(working, view.alias, machine)
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"cones": len(cones), "replaced": replaced},
    )


@register_command("rs", "gpu", description="parallel resubstitution")
def _bind_rs_gpu(invocation: PassInvocation) -> list[PassResult]:
    return [par_resub(invocation.aig, machine=invocation.machine)]


def _commit_resub(
    view: AliasView,
    nref: RefCounts,
    root: int,
    cone: set[int],
    match: ResubMatch,
) -> bool:
    """Apply one substitution; returns False when it has no gain.

    The root's cone-limited MFFC is dereferenced; divisors the
    replacement expression reads are transitively *re-referenced* (they
    and their support survive), and only the genuinely unreferenced
    remainder is deleted.  Gain is exact: deleted nodes minus the at
    most one fresh AND — checked *before* anything mutates, so the
    landing goes through the unconditional
    :func:`repro.commit.commit_replacement` (no rollback path needed).
    """
    needed = {lit_var(view.resolve(match.lit_a))}
    if match.kind == "one":
        needed.add(lit_var(view.resolve(match.lit_b)))
    if root in needed:
        return False  # degenerate: the divisor is the root itself

    deleted = deref_cone(view, root, cone, nref)
    # Transitively revive divisors caught inside the dereferenced set,
    # restoring the reference counts their subtrees lost.
    keep: set[int] = set()
    stack = [var for var in needed if var in deleted]
    while stack:
        var = stack.pop()
        if var in keep:
            continue
        keep.add(var)
        for fanin in view.fanins(var):
            fvar = lit_var(fanin)
            nref[fvar] += 1
            if fvar in deleted and fvar not in keep:
                stack.append(fvar)
    removed = deleted - keep
    new_cost = 0 if match.kind == "zero" else 1
    if len(removed) <= new_cost:  # no strict gain: undo everything
        ref_cone_back(view, removed, nref)
        return False

    def build(add_and: Callable[[int, int], int]) -> int:
        if match.kind == "zero":
            return view.resolve(match.lit_a)
        lit_a = view.resolve(match.lit_a)
        lit_b = view.resolve(match.lit_b)
        new_root = add_and(lit_a, lit_b)
        if match.out_neg:
            new_root ^= 1
        return new_root

    commit_replacement(view, nref, root, removed, build)
    return True
