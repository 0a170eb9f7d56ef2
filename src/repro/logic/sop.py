"""Sum-of-products covers and cube algebra.

A *cube* (product term) is a set of SOP literals; SOP literal ``2*v``
is variable ``v`` uncomplemented and ``2*v + 1`` complemented — the
same packing as AIG literals, reused here for cube algebra.  A *cover*
is a list of cubes (their disjunction).  The empty cube is the
constant-true product; the empty cover is constant false.

Inside :mod:`repro.logic` a cube is an int bit mask: bit ``lit`` is set
for SOP literal ``lit``.  The ISOP generator (:mod:`repro.logic.isop`)
emits mask covers and algebraic factoring (:mod:`repro.logic.factor`)
divides them with the mask functions at the end of this module:
containment is ``c & d == d``, cube division ``c & ~d``, the common
cube an AND-reduce and literal counts bit-sliced count planes.  The public functions take
and return frozenset :data:`Cube` objects and convert at the edge.
"""

from __future__ import annotations

from collections import Counter

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
    planes = count_planes(cover_masks(cover))
    counts: Counter[int] = Counter()
    for weight, plane in enumerate(planes):
        for literal in mask_literals(plane):
            counts[literal] += 1 << weight
    return counts


def common_cube(cover: Cover) -> Cube:
    """Largest cube dividing every cube of the cover."""
    return mask_cube(common_mask(cover_masks(cover)))


def make_cube_free(cover: Cover) -> Cover:
    """Divide out the largest common cube."""
    return mask_cover(cube_free_masks(cover_masks(cover)))


def is_cube_free(cover: Cover) -> bool:
    """True when no single literal divides every cube."""
    return not common_mask(cover_masks(cover))


def divide_by_cube(cover: Cover, divisor: Cube) -> tuple[Cover, Cover]:
    """Algebraic division of a cover by a single cube.

    Returns ``(quotient, remainder)`` with
    ``cover = quotient * divisor + remainder`` (algebraically).
    """
    quotient, remainder = divide_by_mask(
        cover_masks(cover), cube_mask(divisor)
    )
    return mask_cover(quotient), mask_cover(remainder)


def divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Weak algebraic division of a cover by a multi-cube divisor.

    Returns ``(quotient, remainder)`` such that
    ``cover = quotient * divisor + remainder`` with the quotient being
    the largest cover for which this identity holds algebraically.
    """
    quotient, remainder = divide_masks(
        cover_masks(cover), cover_masks(divisor)
    )
    return mask_cover(quotient), mask_cover(remainder)


def cover_to_string(cover: Cover, num_vars: int) -> str:
    """Human-readable SOP, e.g. ``ab' + c`` (for debugging and docs)."""
    if not cover:
        return "0"
    names = [chr(ord("a") + index) for index in range(num_vars)]
    terms = []
    for cube in sorted(cover_masks(cover), key=mask_key):
        if not cube:
            terms.append("1")
            continue
        text = ""
        for literal in mask_literals(cube):
            text += names[literal >> 1] + ("'" if literal & 1 else "")
        terms.append(text)
    return " + ".join(terms)


# ----------------------------------------------------------------------
# Mask cubes: the algebra ISOP and factoring run on
# ----------------------------------------------------------------------


def cube_mask(cube: Cube) -> int:
    """The bit mask of a frozenset cube."""
    mask = 0
    for literal in cube:
        mask |= 1 << literal
    return mask


def cover_masks(cover: Cover) -> list[int]:
    """A frozenset cover as mask cubes, in order."""
    return [cube_mask(cube) for cube in cover]


def mask_literals(mask: int) -> tuple[int, ...]:
    """The SOP literals of a mask cube, ascending."""
    literals = []
    while mask:
        low = mask & -mask
        literals.append(low.bit_length() - 1)
        mask ^= low
    return tuple(literals)


def mask_cube(mask: int) -> Cube:
    """The frozenset cube of a mask."""
    return frozenset(mask_literals(mask))


def mask_cover(masks: list[int]) -> Cover:
    """Mask cubes as a frozenset cover, in order."""
    return [mask_cube(mask) for mask in masks]


def mask_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Cube order: literal count, then the ascending literal tuple."""
    return (mask.bit_count(), mask_literals(mask))


def count_planes(cover: list[int]) -> list[int]:
    """Per-literal cube counts as bit-sliced planes.

    Bit ``lit`` of ``planes[k]`` is bit ``k`` of the number of cubes
    containing ``lit``: each cube is added into the planes with a
    ripple carry, so "in two or more cubes" is the OR of ``planes[1:]``.
    """
    planes: list[int] = []
    for carry in cover:
        for weight, plane in enumerate(planes):
            planes[weight] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def most_frequent(pool: int, planes: list[int]) -> int:
    """The literal of ``pool`` in the most cubes, as a one-bit mask.

    Narrowing the pool from the top plane down keeps exactly the
    literals of the highest count; the lowest set bit is the smallest
    of them, the ``(count, -lit)`` maximum.
    """
    for plane in reversed(planes):
        narrowed = pool & plane
        if narrowed:
            pool = narrowed
    return pool & -pool


def common_mask(cover: list[int]) -> int:
    """Largest cube dividing every cube (AND-reduce; 0 for no cubes)."""
    if not cover:
        return 0
    common = cover[0]
    for cube in cover:
        common &= cube
        if not common:
            break
    return common


def cube_free_masks(cover: list[int]) -> list[int]:
    """Divide out the largest common cube."""
    common = common_mask(cover)
    if not common:
        return list(cover)
    keep = ~common
    return [cube & keep for cube in cover]


def divide_by_mask(cover: list[int], divisor: int) -> tuple[list, list]:
    """Division by one mask cube: ``(quotient, remainder)``, in order."""
    quotient = []
    remainder = []
    keep = ~divisor
    for cube in cover:
        if cube & divisor == divisor:
            quotient.append(cube & keep)
        else:
            remainder.append(cube)
    return quotient, remainder


def divide_masks(cover: list[int], divisor: list[int]) -> tuple[list, list]:
    """Weak division by a mask cover; the quotient in :func:`mask_key`
    order, the remainder in cover order."""
    if not divisor:
        raise ValueError("cannot divide by the empty (constant-false) cover")
    if len(divisor) == 1:
        return divide_by_mask(cover, divisor[0])
    quotient: set[int] | None = None
    for div_cube in divisor:
        keep = ~div_cube
        partial = {
            cube & keep for cube in cover if cube & div_cube == div_cube
        }
        quotient = partial if quotient is None else quotient & partial
        if not quotient:
            return [], list(cover)
    product = {q_cube | d_cube for q_cube in quotient for d_cube in divisor}
    remainder = [cube for cube in cover if cube not in product]
    return sorted(quotient, key=mask_key), remainder
