"""Cone resynthesis: truth table → ISOP → factoring → AND-inverter logic.

This is the per-cone resynthesis pipeline shared by sequential and
parallel refactoring (paper, Section III-B: one GPU thread runs exactly
this per identified cone).  Both polarities of the function are
factored and the cheaper factored form wins, mirroring ABC's practice
of resynthesizing whichever of f / f' factors better.  The planner
runs the mask-cube core (:func:`repro.logic.isop.isop_cover` with one
memo for both polarities, then :func:`repro.logic.factor.factor_masks`).

:func:`plan_resynthesis` keeps the last :data:`PLAN_CACHE_ENTRIES`
plans in one :func:`functools.lru_cache`; the script runner empties it
when a run starts and again when it ends, so no run sees another's
plans.  A plan is a pure function of ``(table, num_vars, max_cubes)``,
so a hit returns the object a miss would have rebuilt field for field;
it saves wall clock only.  Callers keep charging the plan's ``work`` on
every use (one GPU thread per cone recomputes it), and must treat plans
and their templates as read-only.  ``plan_resynthesis.__wrapped__`` is
the uncached planner.
"""

from __future__ import annotations

from functools import lru_cache

from repro.aig.aig import Aig
from repro.logic.factor import (
    FactorNode,
    count_factored_ands,
    factor_masks,
    factored_to_aig,
)
from repro.logic.isop import IsopMemo, isop_cover
from repro.logic.truth import full_mask, tt_support


class ResynPlan:
    """A chosen implementation for a cone function.

    Attributes
    ----------
    tree:
        Factored form of the implemented polarity.
    output_neg:
        True when the tree realizes the complement of the requested
        function (the built root literal must then be inverted).
    est_ands:
        Predicted number of fresh 2-input ANDs (:func:`count_factored_ands`
        of the tree) — the new-cone size of the paper's gain lower bound.
    support:
        Cut variables the function actually depends on; leaves outside
        this set would become dangling after replacement (Section III-F).
    work:
        Unit-work estimate for the cost model (SOP cubes + literals
        processed).
    num_vars:
        Number of cut variables the plan is built over.
    """

    __slots__ = (
        "tree",
        "output_neg",
        "est_ands",
        "support",
        "work",
        "num_vars",
        "_template",
    )

    def __init__(
        self,
        tree: FactorNode,
        output_neg: bool,
        est_ands: int,
        support: list[int],
        work: int,
        num_vars: int,
    ) -> None:
        self.tree = tree
        self.output_neg = output_neg
        self.est_ands = est_ands
        self.support = support
        self.work = work
        self.num_vars = num_vars
        self._template: Aig | None = None

    @property
    def template(self) -> Aig:
        """The new cone as an AIG over ``num_vars`` symbolic leaves.

        Built on first use and kept: one PI per cut variable, the
        factored form in creation order (one node per insertion
        round), and one PO for the root.  Shared read-only by every
        cone the plan serves.
        """
        if self._template is None:
            template = Aig("template")
            pis = [template.add_pi() for _ in range(self.num_vars)]
            template.add_po(build_plan(self, pis, template.add_and))
            self._template = template
        return self._template


#: Covers beyond this many cubes are not factored (XOR-dominated cone
#: functions explode in SOP form; ABC's refactoring bails out alike).
MAX_RESYN_CUBES = 128

#: Plans the run-scoped cache keeps (least recently used evicted).  A
#: plan holds its factored tree and, once built, its template (a few
#: KiB), so an unbounded cache grows with the run.  256 entries keep
#: every hit an unbounded cache gets on ``perfbench``'s
#: ``rf_resyn-large`` (8,428) and 463 of 533 on ``rfc-deep``.
PLAN_CACHE_ENTRIES = 256


@lru_cache(maxsize=PLAN_CACHE_ENTRIES)
def plan_resynthesis(
    table: int, num_vars: int, max_cubes: int = MAX_RESYN_CUBES
) -> ResynPlan | None:
    """Factor ``table`` (trying both polarities) and report the plan.

    Returns None when both polarities exceed ``max_cubes`` product
    terms — the cone is left untouched by the caller.  Cached: see the
    module docstring.
    """
    support = tt_support(table, num_vars)
    # One ISOP memo serves both polarities: a subproblem's cover is a
    # function of its key alone.
    memo: IsopMemo = {}
    pos_cover = isop_cover(table, table, num_vars, memo)
    neg_table = table ^ full_mask(num_vars)
    neg_cover = isop_cover(neg_table, neg_table, num_vars, memo)
    if min(len(pos_cover), len(neg_cover)) > max_cubes:
        return None
    if len(pos_cover) > max_cubes:
        return _plan_single(neg_cover, True, support, num_vars)
    if len(neg_cover) > max_cubes:
        return _plan_single(pos_cover, False, support, num_vars)
    pos_tree = factor_masks(pos_cover)
    neg_tree = factor_masks(neg_cover)
    pos_cost = count_factored_ands(pos_tree)
    neg_cost = count_factored_ands(neg_tree)
    # Work in probe-equivalent units: truth tables cost one unit per
    # 64-bit word, ISOP/factoring one unit per cube literal.
    work = (
        _cover_work(pos_cover)
        + _cover_work(neg_cover)
        + max(1, (1 << num_vars) >> 6)
    )
    if neg_cost < pos_cost:
        return ResynPlan(neg_tree, True, neg_cost, support, work, num_vars)
    return ResynPlan(pos_tree, False, pos_cost, support, work, num_vars)


def _cover_work(cover: list[int]) -> int:
    """One unit per cube plus one per literal of a mask cover."""
    return sum(cube.bit_count() + 1 for cube in cover)


def _plan_single(
    cover: list[int], output_neg: bool, support: list[int], num_vars: int
) -> ResynPlan:
    """Plan from one polarity when the other polarity's cover blew up."""
    tree = factor_masks(cover)
    cost = count_factored_ands(tree)
    return ResynPlan(
        tree, output_neg, cost, support, _cover_work(cover), num_vars
    )


def build_plan(plan: ResynPlan, leaf_lits: list[int], add_and) -> int:
    """Materialize a plan over concrete leaf literals; returns root literal."""
    literal = factored_to_aig(plan.tree, leaf_lits, add_and)
    return literal ^ 1 if plan.output_neg else literal
