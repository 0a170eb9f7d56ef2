"""Sum-of-products covers as bit-mask cubes, and their cube algebra.

A *cube* (product term) is an int bit mask over SOP literals: bit
``lit`` is set for SOP literal ``lit``, where ``2*v`` is variable ``v``
uncomplemented and ``2*v + 1`` complemented — the same packing as AIG
literals.  A *cover* is a list of cubes (their disjunction).  The
empty cube ``0`` is the constant-true product; the empty cover is
constant false.

The ISOP generator (:mod:`repro.logic.isop`) emits mask covers and
algebraic factoring (:mod:`repro.logic.factor`) divides them with the
functions here: containment is ``c & d == d``, cube division
``c & ~d``, the common cube an AND-reduce and literal counts
bit-sliced count planes.
"""

from __future__ import annotations


def mask_literals(mask: int) -> tuple[int, ...]:
    """The SOP literals of a mask cube, ascending."""
    literals = []
    while mask:
        low = mask & -mask
        literals.append(low.bit_length() - 1)
        mask ^= low
    return tuple(literals)


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
