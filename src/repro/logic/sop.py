"""Sum-of-products covers and cube algebra.

A *cube* (product term) is a frozenset of SOP literals; SOP literal
``2*v`` is variable ``v`` uncomplemented and ``2*v + 1`` complemented —
the same packing as AIG literals, reused here for cube algebra.  A
*cover* is a list of cubes (their disjunction).  The empty cube is the
constant-true product; the empty cover is constant false.

These are the objects algebraic factoring (:mod:`repro.logic.factor`)
divides and the ISOP generator (:mod:`repro.logic.isop`) produces.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from repro.logic.truth import full_mask, tt_not, var_table

Cube = frozenset[int]
Cover = list[Cube]

#: The constant-true product term.
TRUE_CUBE: Cube = frozenset()


def make_cube(literals: list[int] | tuple[int, ...]) -> Cube:
    """Build a cube from SOP literals; raises on contradictions."""
    cube = frozenset(literals)
    for literal in cube:
        if literal ^ 1 in cube:
            raise ValueError(
                f"cube contains both polarities of variable {literal >> 1}"
            )
    return cube


def cube_tt(cube: Cube, num_vars: int) -> int:
    """Truth table of a product term."""
    table = full_mask(num_vars)
    for literal in cube:
        var = var_table(literal >> 1, num_vars)
        table &= tt_not(var, num_vars) if literal & 1 else var
    return table


def cover_tt(cover: Cover, num_vars: int) -> int:
    """Truth table of a cover (OR of its cubes)."""
    table = 0
    for cube in cover:
        table |= cube_tt(cube, num_vars)
    return table


def cover_num_literals(cover: Cover) -> int:
    """Total literal count — the factoring cost measure."""
    return sum(len(cube) for cube in cover)


def cover_support(cover: Cover) -> set[int]:
    """Variables appearing in the cover."""
    return {literal >> 1 for cube in cover for literal in cube}


def literal_counts(cover: Cover) -> dict[int, int]:
    """How many cubes each SOP literal appears in."""
    return Counter(chain.from_iterable(cover))


def common_cube(cover: Cover) -> Cube:
    """Largest cube dividing every cube of the cover."""
    if not cover:
        return TRUE_CUBE
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
    """Algebraic division of a cover by a single cube.

    Returns ``(quotient, remainder)`` with
    ``cover = quotient * divisor + remainder`` (algebraically).
    """
    quotient: Cover = []
    remainder: Cover = []
    for cube in cover:
        if divisor <= cube:
            quotient.append(cube - divisor)
        else:
            remainder.append(cube)
    return quotient, remainder


def divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Weak algebraic division of a cover by a multi-cube divisor.

    Returns ``(quotient, remainder)`` such that
    ``cover = quotient * divisor + remainder`` with the quotient being
    the largest cover for which this identity holds algebraically.
    """
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
    return sorted(quotient, key=_cube_key), remainder


def cover_to_string(cover: Cover, num_vars: int) -> str:
    """Human-readable SOP, e.g. ``ab' + c`` (for debugging and docs)."""
    if not cover:
        return "0"
    names = [chr(ord("a") + index) for index in range(num_vars)]
    terms = []
    for cube in sorted(cover, key=_cube_key):
        if not cube:
            terms.append("1")
            continue
        text = ""
        for literal in sorted(cube):
            text += names[literal >> 1] + ("'" if literal & 1 else "")
        terms.append(text)
    return " + ".join(terms)


def _cube_key(cube: Cube) -> tuple[int, tuple[int, ...]]:
    return (len(cube), tuple(sorted(cube)))
