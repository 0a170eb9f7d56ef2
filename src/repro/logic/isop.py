"""Irredundant sum-of-products via the Minato–Morreale algorithm.

This is the SOP-generation step of refactoring's resynthesis pipeline
(paper, Section III-B: "truthtable computation, Sum-of-Product
generation and algebraic factoring").  The recursion computes, for a
lower bound L and upper bound U (L ⊆ f ⊆ U allowed), an irredundant
cover sitting between the bounds; calling it with L = U = f yields an
ISOP of f.

One top-level call solves the same ``(L, U)`` subproblem many times
over, so the recursion memoises its results in a dict that lives for
that call only (a run-wide memo doubles peak RSS).  The memo returns
the cover the repeated recursion would have rebuilt, cube order
included.
"""

from __future__ import annotations

from repro.logic.sop import Cover, cover_tt
from repro.logic.truth import (
    full_mask,
    tt_cofactor0,
    tt_cofactor1,
    tt_depends_on,
    var_table,
)


def isop(table: int, num_vars: int) -> Cover:
    """Compute an irredundant SOP cover of ``table``.

    The returned cover's truth table equals ``table`` exactly (verified
    cheaply by callers via :func:`repro.logic.sop.cover_tt`); no cube or
    literal can be removed without changing the function.
    """
    cover, _ = _isop(table, table, num_vars, num_vars, {})
    return cover


def isop_with_dc(lower: int, upper: int, num_vars: int) -> Cover:
    """ISOP of any function f with ``lower ⊆ f ⊆ upper`` (don't-cares)."""
    if lower & ~upper:
        raise ValueError("lower bound is not contained in upper bound")
    cover, _ = _isop(lower, upper, num_vars, num_vars, {})
    return cover


def _isop(
    lower: int,
    upper: int,
    num_vars: int,
    var_limit: int,
    memo: dict[tuple[int, int], tuple[Cover, int]],
) -> tuple[Cover, int]:
    """Recursive core: returns (cover, truth table of the cover).

    ``memo`` is keyed on the bounds alone: neither bound depends on a
    variable at or above ``var_limit``, so the split variable, and with
    it the whole result, is a function of ``(lower, upper)``.  Memoised
    covers are shared, never mutated.
    """
    if lower == 0:
        return [], 0
    mask = full_mask(num_vars)
    if upper == mask:
        return [frozenset()], mask
    known = memo.get((lower, upper))
    if known is not None:
        return known
    # Split on the highest variable either bound still depends on.
    split = -1
    for index in range(var_limit - 1, -1, -1):
        if tt_depends_on(lower, index, num_vars) or tt_depends_on(
            upper, index, num_vars
        ):
            split = index
            break
    if split < 0:
        # Bounds are constant but neither 0 nor 1 — impossible.
        raise AssertionError("non-constant bounds without support")
    lower0 = tt_cofactor0(lower, split, num_vars)
    lower1 = tt_cofactor1(lower, split, num_vars)
    upper0 = tt_cofactor0(upper, split, num_vars)
    upper1 = tt_cofactor1(upper, split, num_vars)
    # Minterms needed only on the x=0 (resp. x=1) side.
    cover0, table0 = _isop(lower0 & ~upper1, upper0, num_vars, split, memo)
    cover1, table1 = _isop(lower1 & ~upper0, upper1, num_vars, split, memo)
    # What remains uncovered must be covered independently of x.
    rest_lower = (lower0 & ~table0) | (lower1 & ~table1)
    cover_star, table_star = _isop(
        rest_lower, upper0 & upper1, num_vars, split, memo
    )
    neg_literal = 2 * split + 1
    pos_literal = 2 * split
    cover: Cover = [cube | {neg_literal} for cube in cover0]
    cover += [cube | {pos_literal} for cube in cover1]
    cover += cover_star
    var_tt = var_table(split, num_vars)
    result = (table0 & ~var_tt) | (table1 & var_tt) | table_star
    memo[(lower, upper)] = cover, result
    return cover, result


def isop_verified(table: int, num_vars: int) -> Cover:
    """ISOP with an equivalence assertion — used in tests and debugging."""
    cover = isop(table, num_vars)
    realized = cover_tt(cover, num_vars)
    if realized != table:
        raise AssertionError(
            f"ISOP mismatch: wanted {table:#x}, produced {realized:#x}"
        )
    return cover
