"""Unit and property tests for cube algebra and ISOP generation."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic.isop import isop, isop_verified, isop_with_dc
from repro.logic.sop import (
    TRUE_CUBE,
    common_cube,
    cover_num_literals,
    cover_support,
    cover_to_string,
    cover_tt,
    cube_tt,
    divide,
    divide_by_cube,
    is_cube_free,
    literal_counts,
    make_cube,
    make_cube_free,
)
from repro.logic.truth import full_mask, var_table
from tests import factor_reference as reference
from tests.test_resyn import sparse_table


def tables(num_vars: int):
    return st.integers(min_value=0, max_value=full_mask(num_vars))


# ----------------------------------------------------------------------
# Cubes and covers
# ----------------------------------------------------------------------


def test_make_cube_rejects_contradiction():
    with pytest.raises(ValueError):
        make_cube([0, 1])  # x0 and !x0


def test_cube_tt():
    cube = make_cube([0, 3])  # x0 & !x1
    assert cube_tt(cube, 2) == 0b0010
    assert cube_tt(TRUE_CUBE, 2) == 0xF


def test_cover_tt_is_or_of_cubes():
    cover = [make_cube([0]), make_cube([2])]  # x0 + x1
    assert cover_tt(cover, 2) == 0b1110


def test_literal_counts_and_support():
    cover = [make_cube([0, 2]), make_cube([0, 5])]
    counts = literal_counts(cover)
    assert counts[0] == 2
    assert counts[2] == 1
    assert cover_support(cover) == {0, 1, 2}
    assert cover_num_literals(cover) == 4


def test_common_cube_and_cube_free():
    cover = [make_cube([0, 2]), make_cube([0, 4])]
    assert common_cube(cover) == frozenset({0})
    assert not is_cube_free(cover)
    free = make_cube_free(cover)
    assert is_cube_free(free)
    assert free == [frozenset({2}), frozenset({4})]


def test_divide_by_cube():
    # F = abc + abd + e, divisor ab.
    f = [make_cube([0, 2, 4]), make_cube([0, 2, 6]), make_cube([8])]
    quotient, remainder = divide_by_cube(f, make_cube([0, 2]))
    assert sorted(quotient) == sorted([frozenset({4}), frozenset({6})])
    assert remainder == [frozenset({8})]


def test_weak_division_identity():
    # F = (a + b)(c + d) + e  expanded; divide by (c + d).
    f = [
        make_cube([0, 4]), make_cube([0, 6]),
        make_cube([2, 4]), make_cube([2, 6]),
        make_cube([8]),
    ]
    divisor = [make_cube([4]), make_cube([6])]
    quotient, remainder = divide(f, divisor)
    assert sorted(quotient) == sorted([frozenset({0}), frozenset({2})])
    assert remainder == [frozenset({8})]
    # Check F == Q*D + R over truth tables.
    product = [q | d for q in quotient for d in divisor]
    assert cover_tt(product + remainder, 5) == cover_tt(f, 5)


def test_divide_by_empty_cover_rejected():
    with pytest.raises(ValueError):
        divide([make_cube([0])], [])


def test_divide_no_common_quotient():
    f = [make_cube([0]), make_cube([2])]
    divisor = [make_cube([4]), make_cube([6])]
    quotient, remainder = divide(f, divisor)
    assert quotient == []
    assert remainder == f


def test_cover_to_string():
    cover = [make_cube([0, 3]), TRUE_CUBE]
    text = cover_to_string(cover, 2)
    assert "1" in text
    assert "ab'" in text
    assert cover_to_string([], 2) == "0"


# ----------------------------------------------------------------------
# ISOP
# ----------------------------------------------------------------------


def test_isop_constants():
    assert isop(0, 3) == []
    assert isop(full_mask(3), 3) == [frozenset()]


def test_isop_single_variable():
    cover = isop(0b1010, 2)  # f = x0
    assert cover == [frozenset({0})]


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
    cover = isop_verified(table, 4)
    for index in range(len(cover)):
        reduced = cover[:index] + cover[index + 1 :]
        assert cover_tt(reduced, 4) != table


def test_isop_with_dont_cares_respects_bounds():
    lower = 0b1000
    upper = 0b1110
    cover = isop_with_dc(lower, upper, 2)
    realized = cover_tt(cover, 2)
    assert realized & ~upper == 0
    assert lower & ~realized == 0


def test_isop_with_dc_rejects_bad_bounds():
    with pytest.raises(ValueError):
        isop_with_dc(0b11, 0b01, 2)


@pytest.mark.parametrize("num_vars", [17, 99, -1])
def test_isop_rejects_unsupported_widths(num_vars):
    # Constant tables too: the width is checked before any recursion.
    for table in (0, 1):
        with pytest.raises(ValueError):
            isop(table, num_vars)
        with pytest.raises(ValueError):
            isop_with_dc(0, table, num_vars)


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
        assert isop(function, num_vars) == reference.reference_isop(
            function, num_vars
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
    assert isop_with_dc(*bounds) == reference.reference_isop_with_dc(*bounds)


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
    included): every public helper answers like the reference."""
    assert literal_counts(cover) == reference.literal_counts(cover)
    assert common_cube(cover) == reference.common_cube(cover)
    assert make_cube_free(cover) == reference.make_cube_free(cover)
    assert is_cube_free(cover) == reference.is_cube_free(cover)
    assert divide_by_cube(cover, divisor[0]) == reference.divide_by_cube(
        cover, divisor[0]
    )
    assert divide(cover, divisor) == reference.divide(cover, divisor)
