"""Unit and property tests for cube algebra and ISOP generation.

Production covers are lists of mask cubes (:mod:`repro.logic.sop`);
the frozenset reference (``tests/factor_reference.py``) is the oracle
the mask core is diffed against, through the converters below.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic.isop import isop_cover
from repro.logic.sop import (
    common_mask,
    count_planes,
    cube_free_masks,
    divide_by_mask,
    divide_masks,
    mask_literals,
)
from repro.logic.truth import full_mask, tt_not, var_table
from tests import factor_reference as reference
from tests.test_resyn import sparse_table


def tables(num_vars: int):
    return st.integers(min_value=0, max_value=full_mask(num_vars))


# ----------------------------------------------------------------------
# Mask <-> frozenset conversion and cover semantics
# ----------------------------------------------------------------------


def cube_mask(cube) -> int:
    """The mask of a frozenset (or any iterable) of SOP literals."""
    mask = 0
    for literal in cube:
        mask |= 1 << literal
    return mask


def cover_masks(cover) -> list[int]:
    """A frozenset cover as mask cubes, in order."""
    return [cube_mask(cube) for cube in cover]


def mask_cover(masks: list[int]) -> list[frozenset[int]]:
    """Mask cubes as a frozenset cover, in order."""
    return [frozenset(mask_literals(mask)) for mask in masks]


def cube_tt(cube: int, num_vars: int) -> int:
    """Truth table of a mask cube."""
    table = full_mask(num_vars)
    for literal in mask_literals(cube):
        var = var_table(literal >> 1, num_vars)
        table &= tt_not(var, num_vars) if literal & 1 else var
    return table


def cover_tt(cover: list[int], num_vars: int) -> int:
    """Truth table of a mask cover (OR of its cubes)."""
    table = 0
    for cube in cover:
        table |= cube_tt(cube, num_vars)
    return table


def isop(table: int, num_vars: int) -> list[int]:
    """The production ISOP of one function, as the planner calls it."""
    return isop_cover(table, table, num_vars, {})


def plane_counts(planes: list[int]) -> dict[int, int]:
    """Decode :func:`count_planes` into a literal -> cube count map."""
    counts: dict[int, int] = {}
    for weight, plane in enumerate(planes):
        for literal in mask_literals(plane):
            counts[literal] = counts.get(literal, 0) + (1 << weight)
    return counts


def test_cube_tt():
    cube = cube_mask([0, 3])  # x0 & !x1
    assert cube_tt(cube, 2) == 0b0010
    assert cube_tt(0, 2) == 0xF


def test_cover_tt_is_or_of_cubes():
    cover = cover_masks([[0], [2]])  # x0 + x1
    assert cover_tt(cover, 2) == 0b1110


# ----------------------------------------------------------------------
# Cube algebra
# ----------------------------------------------------------------------


def test_literal_counts_and_support():
    counts = plane_counts(count_planes(cover_masks([[0, 2], [0, 5]])))
    assert counts == {0: 2, 2: 1, 5: 1}
    assert {literal >> 1 for literal in counts} == {0, 1, 2}
    assert sum(counts.values()) == 4


def test_common_cube_and_cube_free():
    cover = cover_masks([[0, 2], [0, 4]])
    assert common_mask(cover) == cube_mask([0])
    free = cube_free_masks(cover)
    assert not common_mask(free)
    assert free == cover_masks([[2], [4]])


def test_divide_by_cube():
    # F = abc + abd + e, divisor ab.
    f = cover_masks([[0, 2, 4], [0, 2, 6], [8]])
    quotient, remainder = divide_by_mask(f, cube_mask([0, 2]))
    assert quotient == cover_masks([[4], [6]])
    assert remainder == cover_masks([[8]])


def test_weak_division_identity():
    # F = (a + b)(c + d) + e  expanded; divide by (c + d).
    f = cover_masks([[0, 4], [0, 6], [2, 4], [2, 6], [8]])
    divisor = cover_masks([[4], [6]])
    quotient, remainder = divide_masks(f, divisor)
    assert quotient == cover_masks([[0], [2]])
    assert remainder == cover_masks([[8]])
    # Check F == Q*D + R over truth tables.
    product = [q | d for q in quotient for d in divisor]
    assert cover_tt(product + remainder, 5) == cover_tt(f, 5)


def test_divide_by_empty_cover_rejected():
    with pytest.raises(ValueError):
        divide_masks(cover_masks([[0]]), [])


def test_divide_no_common_quotient():
    f = cover_masks([[0], [2]])
    divisor = cover_masks([[4], [6]])
    quotient, remainder = divide_masks(f, divisor)
    assert quotient == []
    assert remainder == f


# ----------------------------------------------------------------------
# ISOP
# ----------------------------------------------------------------------


def test_isop_constants():
    assert isop(0, 3) == []
    assert isop(full_mask(3), 3) == [0]


def test_isop_single_variable():
    assert isop(0b1010, 2) == [cube_mask([0])]  # f = x0


@settings(max_examples=120, deadline=None)
@given(table=tables(4))
def test_isop_realizes_function_4vars(table):
    assert cover_tt(isop(table, 4), 4) == table


@settings(max_examples=40, deadline=None)
@given(table=tables(6))
def test_isop_realizes_function_6vars(table):
    assert cover_tt(isop(table, 6), 6) == table


@settings(max_examples=60, deadline=None)
@given(table=tables(4))
def test_isop_is_irredundant(table):
    """Removing any cube changes the function."""
    cover = isop(table, 4)
    assert cover_tt(cover, 4) == table
    for index in range(len(cover)):
        reduced = cover[:index] + cover[index + 1 :]
        assert cover_tt(reduced, 4) != table


def test_isop_with_dont_cares_respects_bounds():
    lower = 0b1000
    upper = 0b1110
    realized = cover_tt(isop_cover(lower, upper, 2, {}), 2)
    assert realized & ~upper == 0
    assert lower & ~realized == 0


@pytest.mark.parametrize("num_vars", [17, 99, -1])
def test_isop_rejects_unsupported_widths(num_vars):
    # Constant tables too: the width is checked before any recursion.
    for table in (0, 1):
        with pytest.raises(ValueError):
            isop(table, num_vars)
        with pytest.raises(ValueError):
            isop_cover(0, table, num_vars, {})


def test_isop_xor_has_expected_cube_count():
    # 3-input XOR needs 4 minterm cubes in any SOP.
    xor3 = 0b10010110
    cover = isop(xor3, 3)
    assert len(cover) == 4
    assert cover_tt(cover, 3) == xor3


# ----------------------------------------------------------------------
# Differential: the mask core against the frozenset reference
# ----------------------------------------------------------------------


@st.composite
def cone_tables(draw, max_vars: int = 12):
    """(table, num_vars): a random or a sparse cone-like table."""
    num_vars = draw(st.integers(min_value=0, max_value=max_vars))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        return rng.getrandbits(1 << num_vars), num_vars
    return sparse_table(rng, num_vars), num_vars


@settings(max_examples=80, deadline=None)
@given(case=cone_tables())
@example(case=(0, 5))
@example(case=(full_mask(5), 5))
@example(case=(0, 0))
@example(case=(1, 0))
@example(case=(0b1010, 2))
def test_isop_matches_reference_cube_for_cube(case):
    table, num_vars = case
    for function in (table, table ^ full_mask(num_vars)):
        assert mask_cover(isop(function, num_vars)) == (
            reference.reference_isop(function, num_vars)
        )


@st.composite
def dc_bounds(draw):
    """(lower, upper, num_vars): a cone table and a random subset of it."""
    upper, num_vars = draw(cone_tables(max_vars=10))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return upper & rng.getrandbits(1 << num_vars), upper, num_vars


#: x0 x1, the lower bound of an example whose upper bound also depends
#: on x2 and x3.
X0X1 = var_table(0, 4) & var_table(1, 4)


@settings(max_examples=60, deadline=None)
@given(bounds=dc_bounds())
@example(bounds=(0, 0b0110, 3))
@example(bounds=(0b0110, full_mask(3), 3))
@example(bounds=(1, 1, 0))
@example(bounds=(X0X1, X0X1 | 1 << 0b1110, 4))
def test_isop_with_dc_matches_reference(bounds):
    assert mask_cover(isop_cover(*bounds, {})) == (
        reference.reference_isop_with_dc(*bounds)
    )


@settings(max_examples=80, deadline=None)
@given(
    cover=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=9), max_size=5),
        max_size=9,
    ),
    divisor=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=9), max_size=3),
        min_size=1,
        max_size=3,
    ),
)
@example(cover=[], divisor=[frozenset()])
@example(
    cover=[frozenset({0, 4}), frozenset({0, 6}), frozenset({2, 4})],
    divisor=[frozenset({4}), frozenset({6})],
)
def test_cube_algebra_matches_reference(cover, divisor):
    """Arbitrary covers (duplicates and both polarities of a variable
    included): every mask helper answers like the reference."""
    masks = cover_masks(cover)
    divisors = cover_masks(divisor)
    assert plane_counts(count_planes(masks)) == reference.literal_counts(
        cover
    )
    assert mask_cover([common_mask(masks)]) == [reference.common_cube(cover)]
    assert mask_cover(cube_free_masks(masks)) == reference.make_cube_free(
        cover
    )
    assert (not common_mask(masks)) == reference.is_cube_free(cover)
    quotient, remainder = divide_by_mask(masks, divisors[0])
    assert (mask_cover(quotient), mask_cover(remainder)) == (
        reference.divide_by_cube(cover, divisor[0])
    )
    quotient, remainder = divide_masks(masks, divisors)
    assert (mask_cover(quotient), mask_cover(remainder)) == (
        reference.divide(cover, divisor)
    )
