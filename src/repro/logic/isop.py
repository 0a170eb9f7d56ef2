"""Irredundant sum-of-products via the Minato–Morreale algorithm.

This is the SOP-generation step of refactoring's resynthesis pipeline
(paper, Section III-B: "truthtable computation, Sum-of-Product
generation and algebraic factoring").  The recursion computes, for a
lower bound L and upper bound U (L ⊆ f ⊆ U allowed), an irredundant
cover sitting between the bounds; calling it with L = U = f yields an
ISOP of f, which is how the resynthesis planner
(:func:`repro.logic.resyn.plan_resynthesis`) calls :func:`isop_cover`,
the one entry point.  The frozenset formulation this replaced is the
test oracle ``tests/factor_reference.py``.

The recursion runs on narrow tables and emits mask cubes (see
:mod:`repro.logic.sop`).  A subproblem's bounds are truncated to the
width of their highest dependent variable — while both bounds repeat
across the top half of the table, that half is dropped — so the split
variable is always the top one and most subproblems touch a few words
instead of the whole table.  The returned table is re-expanded by
doubling.  One top-level call solves the same subproblem many times
over, so results are memoised on ``(lower, upper, width)`` over the
truncated tables in a dict the caller scopes (one call, or both
polarities of one plan; a run-wide memo doubles peak RSS).  A result
is a function of its key alone, so the memo returns the cover the
repeated recursion would have rebuilt, cube order included.
"""

from __future__ import annotations

from repro.logic.truth import MAX_TT_VARS, full_mask

#: All-ones table of each width (``_FULL[w]`` has ``2^w`` bits).
_FULL = tuple((1 << (1 << width)) - 1 for width in range(MAX_TT_VARS + 1))

_NO_CUBES: list[int] = []
_TRUE_CUBE_ONLY: list[int] = [0]

#: A memo of :func:`isop_cover`: ``(lower, upper, width)`` over the
#: truncated tables -> (mask cover, table of the cover at ``width``).
IsopMemo = dict[tuple[int, int, int], tuple[list[int], int]]


def isop_cover(
    lower: int, upper: int, num_vars: int, memo: IsopMemo
) -> list[int]:
    """ISOP between the bounds as mask cubes; ``ValueError`` if the
    width is unsupported.  ``lower`` must be contained in ``upper``.
    Memoised covers are shared: never mutate them."""
    full_mask(num_vars)
    cover, _ = _isop(lower, upper, num_vars, memo)
    return cover


def _isop(
    lower: int, upper: int, width: int, memo: IsopMemo
) -> tuple[list[int], int]:
    """Recursive core: (mask cover, truth table of the cover at ``width``).

    Neither bound depends on a variable at or above ``width``.
    """
    if lower == 0:
        return _NO_CUBES, 0
    if upper == _FULL[width]:
        return _TRUE_CUBE_ONLY, upper
    entry_width = width
    # Drop top halves both bounds repeat: afterwards the top variable,
    # x_{width-1}, is the highest one either bound depends on.
    while True:
        if not width:
            # Bounds are constant but neither 0 nor 1 — impossible.
            raise AssertionError("non-constant bounds without support")
        half = 1 << (width - 1)
        low = _FULL[width - 1]
        lower0 = lower & low
        lower1 = lower >> half
        upper0 = upper & low
        upper1 = upper >> half
        if lower0 != lower1 or upper0 != upper1:
            break
        lower, upper, width = lower0, upper0, width - 1
    key = (lower, upper, width)
    known = memo.get(key)
    if known is None:
        split = width - 1
        # Minterms needed only on the x=0 (resp. x=1) side.
        cover0, table0 = _isop(lower0 & ~upper1, upper0, split, memo)
        cover1, table1 = _isop(lower1 & ~upper0, upper1, split, memo)
        # What remains uncovered must be covered independently of x.
        cover_star, table_star = _isop(
            (lower0 & ~table0) | (lower1 & ~table1),
            upper0 & upper1,
            split,
            memo,
        )
        neg_literal = 1 << (2 * split + 1)
        pos_literal = 1 << (2 * split)
        cover = [cube | neg_literal for cube in cover0]
        cover += [cube | pos_literal for cube in cover1]
        cover += cover_star
        known = (
            cover,
            table0 | table1 << half | table_star | table_star << half,
        )
        memo[key] = known
    cover, table = known
    while width < entry_width:
        table |= table << (1 << width)
        width += 1
    return cover, table
