"""Sequential refactoring (the ABC ``drf`` / ``drf -z`` baseline).

For every AND node in topological order, a large reconvergence-driven
cut (default size 12, the paper's setting) is computed, the local
function of the node w.r.t. the cut is extracted as a truth table,
resynthesized through ISOP + algebraic factoring, and the new
implementation replaces the node's MFFC when that decreases (or, with
``zero_gain``, does not increase) the node count.

Replacement is expressed through the alias mechanism of
:class:`~repro.algorithms.common.AliasView`: the old root redirects to
the new root literal, reference counts are transferred, and the dead
MFFC is retired.  Because later nodes read alias-resolved fanins, each
replacement is immediately visible to subsequent cones — the on-the-fly
updating the paper credits for sequential refactoring's quality edge
over one-pass parallel refactoring.
"""

from __future__ import annotations

from repro.aig.aig import Aig, resolve_aliases
from repro.aig.cuts import DEFAULT_CUT_SIZE, reconv_cut
from repro.aig.literals import make_lit
from repro.algorithms.common import (
    AliasView,
    PassResult,
    RefCounts,
    resolved_fanout_counts,
)
from repro.commit import apply_replacement, deref_cone
from repro.engine.context import clone_with_context, context_for
from repro.logic.resyn import build_plan, plan_resynthesis
from repro.logic.truth import simulate_cone
from repro.parallel.machine import SeqMeter


def seq_refactor(
    aig: Aig,
    max_cut_size: int = DEFAULT_CUT_SIZE,
    zero_gain: bool = False,
    meter: SeqMeter | None = None,
) -> PassResult:
    """Refactor an AIG node by node; returns the compacted result."""
    meter = meter if meter is not None else SeqMeter()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)

    view = AliasView(working)
    nref = resolved_fanout_counts(
        working, resolve_aliases(view.alias, working.num_vars)
    ).tolist()
    nref.extend([0] * 16)  # slack; grown as nodes are added
    original_limit = working.num_vars
    min_gain = 0 if zero_gain else 1

    attempted = 0
    replaced = 0
    for root in range(original_limit):
        if not view.is_and(root) or root in view.alias:
            continue
        if nref[root] == 0:
            continue  # became dangling after an earlier replacement
        attempted += 1
        gain, work = _try_replace(
            view, nref, root, max_cut_size, min_gain
        )
        meter.add(work, "rf.node")
        if gain is not None:
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


def _try_replace(
    view: AliasView,
    nref: RefCounts,
    root: int,
    max_cut_size: int,
    min_gain: int,
    level_cap: dict[int, int] | None = None,
) -> tuple[int | None, int]:
    """Evaluate and (if profitable) commit one cone replacement.

    Returns ``(gain_or_None, work_units)``; ``None`` means rejected.

    ``level_cap`` (optional) maps every live variable to an upper bound
    on its level; a replacement whose new root would exceed the old
    root's cap is rejected, and created nodes record their own caps —
    the conflict-breaking pass uses this to guarantee the pass never
    deepens the graph.  ``None`` (the default, used by ``rf``/``rfz``)
    skips the check entirely.
    """
    cut = reconv_cut(view, root, max_cut_size)
    work = cut.work
    if len(cut.cone) < 2:
        return None, work  # nothing to restructure
    leaves = sorted(cut.leaves)
    table = simulate_cone(view, make_lit(root), leaves)
    tt_work = len(cut.cone) * max(1, (1 << len(leaves)) >> 6)
    plan = plan_resynthesis(table, len(leaves))
    if plan is None:
        return None, work + tt_work  # SOP blow-up: leave untouched
    work += tt_work + plan.work

    # Dereference the cone-limited MFFC: these nodes disappear if we
    # commit.  The deref stops at the cut leaves (which the new cone
    # re-references), so deletion never escapes the resynthesized cone.
    deleted = deref_cone(view, root, cut.cone, nref)
    leaf_lits = [make_lit(var) for var in leaves]
    gain, created = apply_replacement(
        view,
        nref,
        root,
        deleted,
        lambda add_and: build_plan(plan, leaf_lits, add_and),
        min_gain,
        level_cap=level_cap,
    )
    work += created + len(deleted)
    return gain, work
