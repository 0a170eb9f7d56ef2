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

from functools import lru_cache

from repro.logic.sop import Cover, cover_tt
from repro.logic.truth import full_mask, var_table

#: Per-variable split data ``(half, low, high)``: ``half = 2^i`` and
#: ``low``/``high`` are the table positions where ``x_i`` is 0/1.
_Splits = tuple[tuple[int, int, int], ...]


def isop(table: int, num_vars: int) -> Cover:
    """Compute an irredundant SOP cover of ``table``.

    The returned cover's truth table equals ``table`` exactly (verified
    cheaply by callers via :func:`repro.logic.sop.cover_tt`); no cube or
    literal can be removed without changing the function.
    """
    mask, splits = _split_masks(num_vars)
    cover, _ = _isop(table, table, num_vars, mask, splits, {})
    return cover


def isop_with_dc(lower: int, upper: int, num_vars: int) -> Cover:
    """ISOP of any function f with ``lower ⊆ f ⊆ upper`` (don't-cares)."""
    mask, splits = _split_masks(num_vars)
    if lower & ~upper:
        raise ValueError("lower bound is not contained in upper bound")
    cover, _ = _isop(lower, upper, num_vars, mask, splits, {})
    return cover


@lru_cache(maxsize=None)
def _split_masks(num_vars: int) -> tuple[int, _Splits]:
    """Full mask and split data of a width; ``ValueError`` if unsupported."""
    mask = full_mask(num_vars)
    splits = []
    for index in range(num_vars):
        high = var_table(index, num_vars)
        splits.append((1 << index, mask ^ high, high))
    return mask, tuple(splits)


def _isop(
    lower: int,
    upper: int,
    var_limit: int,
    mask: int,
    splits: _Splits,
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
    if upper == mask:
        return [frozenset()], mask
    known = memo.get((lower, upper))
    if known is not None:
        return known
    # Split on the highest variable either bound still depends on: a
    # table depends on x_i when its two cofactors differ, i.e. when
    # shifting the x_i = 1 half onto the x_i = 0 half changes a bit.
    for split in range(var_limit - 1, -1, -1):
        half, low, high = splits[split]
        if (lower ^ lower >> half) & low or (upper ^ upper >> half) & low:
            break
    else:
        # Bounds are constant but neither 0 nor 1 — impossible.
        raise AssertionError("non-constant bounds without support")
    lower0 = lower & low
    lower0 |= lower0 << half
    lower1 = lower & high
    lower1 |= lower1 >> half
    upper0 = upper & low
    upper0 |= upper0 << half
    upper1 = upper & high
    upper1 |= upper1 >> half
    # Minterms needed only on the x=0 (resp. x=1) side.
    cover0, table0 = _isop(
        lower0 & ~upper1, upper0, split, mask, splits, memo
    )
    cover1, table1 = _isop(
        lower1 & ~upper0, upper1, split, mask, splits, memo
    )
    # What remains uncovered must be covered independently of x.
    rest_lower = (lower0 & ~table0) | (lower1 & ~table1)
    cover_star, table_star = _isop(
        rest_lower, upper0 & upper1, split, mask, splits, memo
    )
    neg_literal = 2 * split + 1
    pos_literal = 2 * split
    cover: Cover = [cube | {neg_literal} for cube in cover0]
    cover += [cube | {pos_literal} for cube in cover1]
    cover += cover_star
    result = (table0 & low) | (table1 & high) | table_star
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
