"""Frozenset reference of the resynthesis algebra (the differential oracle).

This is the formulation the bit-mask core of :mod:`repro.logic`
replaced, kept verbatim in behavior: cubes are frozensets of SOP
literals, the Minato–Morreale ISOP recursion runs on full-width truth
tables with a per-call ``(lower, upper)`` memo, literal counts are
``Counter`` builds, and GFACTOR divides frozenset covers.
``tests/test_sop_isop.py`` and ``tests/test_factor.py`` compare the
production covers and factored trees against it, cube for cube and
node for node.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from repro.logic.factor import FactorNode
from repro.logic.truth import full_mask, var_table

Cube = frozenset[int]
Cover = list[Cube]


# ----------------------------------------------------------------------
# ISOP
# ----------------------------------------------------------------------


def reference_isop(table: int, num_vars: int) -> Cover:
    """Irredundant SOP cover of ``table`` (full-width recursion)."""
    return reference_isop_with_dc(table, table, num_vars)


def reference_isop_with_dc(lower: int, upper: int, num_vars: int) -> Cover:
    """ISOP of any function between ``lower`` and ``upper``."""
    mask = full_mask(num_vars)
    splits = []
    for index in range(num_vars):
        high = var_table(index, num_vars)
        splits.append((1 << index, mask ^ high, high))
    if lower & ~upper:
        raise ValueError("lower bound is not contained in upper bound")
    cover, _ = _isop(lower, upper, num_vars, mask, splits, {})
    return cover


def _isop(lower, upper, var_limit, mask, splits, memo):
    if lower == 0:
        return [], 0
    if upper == mask:
        return [frozenset()], mask
    known = memo.get((lower, upper))
    if known is not None:
        return known
    for split in range(var_limit - 1, -1, -1):
        half, low, high = splits[split]
        if (lower ^ lower >> half) & low or (upper ^ upper >> half) & low:
            break
    else:
        raise AssertionError("non-constant bounds without support")
    lower0 = lower & low
    lower0 |= lower0 << half
    lower1 = lower & high
    lower1 |= lower1 >> half
    upper0 = upper & low
    upper0 |= upper0 << half
    upper1 = upper & high
    upper1 |= upper1 >> half
    cover0, table0 = _isop(
        lower0 & ~upper1, upper0, split, mask, splits, memo
    )
    cover1, table1 = _isop(
        lower1 & ~upper0, upper1, split, mask, splits, memo
    )
    rest_lower = (lower0 & ~table0) | (lower1 & ~table1)
    cover_star, table_star = _isop(
        rest_lower, upper0 & upper1, split, mask, splits, memo
    )
    cover = [cube | {2 * split + 1} for cube in cover0]
    cover += [cube | {2 * split} for cube in cover1]
    cover += cover_star
    result = (table0 & low) | (table1 & high) | table_star
    memo[(lower, upper)] = cover, result
    return cover, result


# ----------------------------------------------------------------------
# Cube algebra
# ----------------------------------------------------------------------


def literal_counts(cover: Cover) -> Counter:
    """How many cubes each SOP literal appears in."""
    return Counter(chain.from_iterable(cover))


def common_cube(cover: Cover) -> Cube:
    """Largest cube dividing every cube of the cover."""
    if not cover:
        return frozenset()
    common = set(cover[0])
    for cube in cover[1:]:
        common &= cube
        if not common:
            break
    return frozenset(common)


def make_cube_free(cover: Cover) -> Cover:
    """Divide out the largest common cube."""
    common = common_cube(cover)
    if not common:
        return list(cover)
    return [cube - common for cube in cover]


def is_cube_free(cover: Cover) -> bool:
    """True when no single literal divides every cube."""
    return not common_cube(cover)


def divide_by_cube(cover: Cover, divisor: Cube) -> tuple[Cover, Cover]:
    """Algebraic division by one cube: ``(quotient, remainder)``."""
    quotient: Cover = []
    remainder: Cover = []
    for cube in cover:
        if divisor <= cube:
            quotient.append(cube - divisor)
        else:
            remainder.append(cube)
    return quotient, remainder


def divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Weak algebraic division by a multi-cube divisor."""
    if not divisor:
        raise ValueError("cannot divide by the empty (constant-false) cover")
    if len(divisor) == 1:
        return divide_by_cube(cover, divisor[0])
    quotient_sets: list[set[Cube]] = []
    for div_cube in divisor:
        partial, _ = divide_by_cube(cover, div_cube)
        quotient_sets.append(set(partial))
        if not partial:
            return [], list(cover)
    quotient = set.intersection(*quotient_sets)
    if not quotient:
        return [], list(cover)
    product = {
        frozenset(q_cube | d_cube)
        for q_cube in quotient
        for d_cube in divisor
    }
    remainder = [cube for cube in cover if cube not in product]
    return sorted(quotient, key=cube_key), remainder


def cube_key(cube: Cube) -> tuple[int, tuple[int, ...]]:
    return (len(cube), tuple(sorted(cube)))


# ----------------------------------------------------------------------
# GFACTOR
# ----------------------------------------------------------------------


def reference_factor(cover: Cover) -> FactorNode:
    """Factor a cover into a multi-level expression tree."""
    if not cover:
        return FactorNode("const0")
    if any(len(cube) == 0 for cube in cover):
        return FactorNode("const1")
    return _gfactor(list(cover))


def _cube_node(cube: Cube) -> FactorNode:
    return FactorNode.and_([FactorNode.lit(lit) for lit in sorted(cube)])


def _sop_node(cover: Cover) -> FactorNode:
    return FactorNode.or_([_cube_node(cube) for cube in cover])


def _gfactor(cover: Cover) -> FactorNode:
    if len(cover) == 1:
        return _cube_node(cover[0])
    divisor = _quick_divisor(cover)
    if divisor is None:
        return _sop_node(cover)
    quotient, _ = divide(cover, divisor)
    if len(quotient) == 1:
        return _literal_factor(cover, quotient[0] | divisor[0])
    quotient = make_cube_free(quotient)
    divisor_new, remainder = divide(cover, quotient)
    if not divisor_new:
        return _literal_factor(cover, _best_literal_cube(cover))
    if is_cube_free(divisor_new):
        quotient_tree = _gfactor(quotient)
        divisor_tree = _gfactor(divisor_new)
        product = FactorNode.and_([divisor_tree, quotient_tree])
        if not remainder:
            return product
        return FactorNode.or_([product, _gfactor(remainder)])
    return _literal_factor(cover, common_cube(divisor_new))


def _best_literal_cube(cover: Cover) -> Cube:
    counts = literal_counts(cover)
    best = max(counts, key=lambda lit: (counts[lit], -lit))
    return frozenset({best})


def _literal_factor(cover: Cover, candidates: Cube) -> FactorNode:
    counts = literal_counts(cover)
    pool = [lit for lit in candidates if counts.get(lit, 0) > 1]
    if not pool:
        pool = [lit for lit, count in counts.items() if count > 1]
    if not pool:
        return _sop_node(cover)
    literal = max(pool, key=lambda lit: (counts[lit], -lit))
    quotient, remainder = divide_by_cube(cover, frozenset({literal}))
    product = FactorNode.and_([FactorNode.lit(literal), _gfactor(quotient)])
    if not remainder:
        return product
    return FactorNode.or_([product, _gfactor(remainder)])


def _quick_divisor(cover: Cover) -> Cover | None:
    counts = literal_counts(cover)
    if not any(count > 1 for count in counts.values()):
        return None
    kernel = list(cover)
    while True:
        counts = literal_counts(kernel)
        repeated = [lit for lit, count in counts.items() if count > 1]
        if not repeated:
            break
        literal = max(repeated, key=lambda lit: (counts[lit], -lit))
        kernel, _ = divide_by_cube(kernel, frozenset({literal}))
        kernel = make_cube_free(kernel)
        if len(kernel) <= 1:
            return None
    return kernel if len(kernel) > 1 else None


def tree_shape(tree: FactorNode) -> tuple:
    """The whole tree as nested tuples, for node-for-node comparison."""
    return (
        tree.kind,
        tree.payload,
        tuple(tree_shape(child) for child in tree.children),
    )
