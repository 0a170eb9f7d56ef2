"""Sequential DAG-aware rewriting (the ABC ``drw`` / ``drwz`` baseline).

For every AND node in topological order, the 4-feasible cuts are
examined; each cut function is NPN-canonicalized and looked up in the
rewriting library (:mod:`repro.algorithms.rewrite_lib`).  The candidate
with the best estimated gain — nodes freed by dereferencing the cut
cone minus the library structure's size — is committed when the *exact*
gain (after structural hashing) meets the threshold: positive for
``rw``, non-negative for ``rwz``.

Like sequential refactoring, replacement is alias-based and immediately
visible to later nodes (DAG-aware, on-the-fly updating).
"""

from __future__ import annotations

from repro.aig.aig import Aig, resolve_aliases
from repro.aig.cuts import enumerate_cuts_with_tables
from repro.aig.literals import lit_var, make_lit
from repro.algorithms.common import (
    AliasView,
    PassResult,
    RefCounts,
    resolved_fanout_counts,
)
from repro.algorithms.rewrite_lib import instantiate_template, match_function
from repro.commit import (
    apply_replacement,
    deref_walked,
    ref_cone_back,
    walk_cone,
)
from repro.engine.context import clone_with_context, context_for
from repro.parallel.machine import SeqMeter

#: Rewriting cut width (4-input cuts, as in ABC and NovelRewrite).
REWRITE_CUT_SIZE = 4

#: Per-node cut budget during enumeration.
MAX_CUTS_PER_NODE = 8

#: Probe-equivalent cost of evaluating one cut: cone truth table, NPN
#: canonicalization, library matching and DAG-aware gain counting.
#: Sized so the metered per-pass drw:drf cost ratio lands near ABC's
#: observed ~0.6-0.9x (derivable from the paper's Table III: ABC resyn2
#: minus rf_resyn runtime split over the four rewrite passes).
CUT_EVAL_WORK = 120


def seq_rewrite(
    aig: Aig,
    zero_gain: bool = False,
    meter: SeqMeter | None = None,
) -> PassResult:
    """Rewrite an AIG node by node; returns the compacted result."""
    meter = meter if meter is not None else SeqMeter()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)

    cols = enumerate_cuts_with_tables(
        working, REWRITE_CUT_SIZE, MAX_CUTS_PER_NODE
    )
    # Every cut of the constant, the PIs and the live ANDs: a dead AND
    # owns a trivial row in the columns but is not enumerated.
    dead_ands = (
        working.num_vars - 1 - working.num_pis - working.num_ands
    )
    meter.add(int(cols.count.sum()) - dead_ands, "rw.cut_enum")
    # One ``tolist`` per column; a root's rows become cut lists only
    # when the loop reaches it (building every row's list up front
    # costs more than the enumeration itself).
    first = cols.first.tolist()
    count = cols.count.tolist()
    cut_leaves = cols.leaves.tolist()
    cut_size = cols.size.tolist()

    view = AliasView(working)
    nref = resolved_fanout_counts(
        working, resolve_aliases(view.alias, working.num_vars)
    ).tolist()
    original_limit = working.num_vars
    min_gain = 0 if zero_gain else 1

    attempted = 0
    replaced = 0
    for root in range(original_limit):
        if not view.is_and(root) or root in view.alias:
            continue
        if nref[root] == 0:
            continue
        attempted += 1
        start = first[root]
        cut_list = [
            cut_leaves[row][: cut_size[row]]
            for row in range(start, start + count[root])
        ]
        committed, work = _rewrite_node(
            view, nref, root, cut_list, min_gain
        )
        meter.add(work, "rw.node")
        if committed:
            replaced += 1

    result = working.compact(resolve=view.alias)
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"attempted": attempted, "replaced": replaced},
    )


def _rewrite_node(
    view: AliasView,
    nref: RefCounts,
    root: int,
    cut_list: list[list[int]],
    min_gain: int,
) -> tuple[bool, int]:
    """Try to rewrite one node; returns (committed, work_units)."""
    work = 0
    best = None  # (est_gain, leaves, transform, template, cone)
    for cut in cut_list:
        if len(cut) < 2:
            continue
        evaluated = _evaluate_cut(view, nref, root, cut)
        work += CUT_EVAL_WORK
        if evaluated is None:
            continue
        est_gain, leaves, transform, template, cone = evaluated
        if best is None or est_gain > best[0]:
            best = evaluated
    if best is None or best[0] < min_gain:
        return False, work
    est_gain, leaves, transform, template, cone = best

    deleted = deref_walked(cone, root, nref)
    leaf_lits = [make_lit(var) for var in leaves]
    gain, created = apply_replacement(
        view,
        nref,
        root,
        deleted,
        lambda add_and: instantiate_template(
            template, transform, leaf_lits, add_and
        ),
        min_gain,
    )
    work += len(deleted) + created
    return gain is not None, work


def _evaluate_cut(
    view: AliasView,
    nref: RefCounts,
    root: int,
    cut: list[int],
):
    """Estimate the gain of rewriting ``root`` against one cut.

    Returns ``(est_gain, leaves, transform, template, cone)`` or None
    when the cut is stale (leaves deleted by earlier replacements, or
    the cone escapes the resolved cut).  ``cone`` is
    :func:`~repro.commit.walk_cone`'s member-to-fanin-pair map.
    """
    leaves: list[int] = []
    seen: set[int] = set()
    for var in cut:
        resolved = view.resolve(make_lit(var))
        rvar = lit_var(resolved)
        if view.aig.is_dead(rvar):
            return None
        if rvar not in seen:
            seen.add(rvar)
            leaves.append(rvar)
    if len(leaves) < 2 or root in seen:
        return None
    leaves.sort()
    try:
        cone, table = walk_cone(view, root, leaves)
    except ValueError:
        return None
    transform, template = match_function(table, leaves)
    # Exact freed-node count via dereference-then-restore.
    deleted = deref_walked(cone, root, nref)
    ref_cone_back(view, deleted, nref)
    est_gain = len(deleted) - template.num_ands
    return est_gain, leaves, transform, template, cone
