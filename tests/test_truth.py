"""Unit and property tests for truth-table operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.logic.truth import (
    MAX_TT_VARS,
    full_mask,
    simulate_cone,
    tt_cofactor0,
    tt_cofactor1,
    tt_depends_on,
    tt_not,
    tt_support,
    var_table,
)


def tt_permute(table: int, perm: tuple[int, ...], num_vars: int) -> int:
    """Reorder inputs: output variable ``i`` reads old variable ``perm[i]``.

    Returns the table of ``g(x_0..x_{n-1}) = f(x at positions perm)``;
    formally ``g(m) = f(m')`` where minterm bit ``perm[i]`` of ``m'``
    equals bit ``i`` of ``m``.
    """
    if sorted(perm) != list(range(num_vars)):
        raise ValueError(f"{perm} is not a permutation of 0..{num_vars - 1}")
    size = 1 << num_vars
    out = 0
    for minterm in range(size):
        source = 0
        for new_index in range(num_vars):
            if minterm >> new_index & 1:
                source |= 1 << perm[new_index]
        if table >> source & 1:
            out |= 1 << minterm
    return out


def tt_flip(table: int, index: int, num_vars: int) -> int:
    """Negate input ``x_index`` (swap its cofactors)."""
    half = 1 << index
    mask = var_table(index, num_vars)
    high = table & mask
    low = table & ~mask
    return (high >> half) | (low << half)


def tables(num_vars: int):
    return st.integers(min_value=0, max_value=full_mask(num_vars))


def test_full_mask():
    assert full_mask(0) == 1
    assert full_mask(2) == 0xF
    assert full_mask(3) == 0xFF


def test_var_table_values():
    assert var_table(0, 2) == 0b1010
    assert var_table(1, 2) == 0b1100
    assert var_table(0, 3) == 0xAA
    assert var_table(2, 3) == 0xF0


def test_var_table_semantics():
    for num_vars in (1, 2, 3, 4):
        for index in range(num_vars):
            table = var_table(index, num_vars)
            for minterm in range(1 << num_vars):
                assert bool(table >> minterm & 1) == bool(
                    minterm >> index & 1
                )


def test_var_table_bounds():
    with pytest.raises(ValueError):
        var_table(3, 3)
    with pytest.raises(ValueError):
        var_table(0, MAX_TT_VARS + 1)


@settings(max_examples=60, deadline=None)
@given(table=tables(4))
def test_not_is_involution(table):
    assert tt_not(tt_not(table, 4), 4) == table


@settings(max_examples=60, deadline=None)
@given(table=tables(4), index=st.integers(min_value=0, max_value=3))
def test_shannon_expansion(table, index):
    """f = (x & f1) | (!x & f0)."""
    x = var_table(index, 4)
    f0 = tt_cofactor0(table, index, 4)
    f1 = tt_cofactor1(table, index, 4)
    assert (x & f1) | (tt_not(x, 4) & f0) == table


@settings(max_examples=60, deadline=None)
@given(table=tables(4), index=st.integers(min_value=0, max_value=3))
def test_cofactors_are_independent_of_variable(table, index):
    for cof in (
        tt_cofactor0(table, index, 4),
        tt_cofactor1(table, index, 4),
    ):
        assert not tt_depends_on(cof, index, 4)


@settings(max_examples=60, deadline=None)
@given(table=tables(3), index=st.integers(min_value=0, max_value=2))
def test_flip_is_involution(table, index):
    assert tt_flip(tt_flip(table, index, 3), index, 3) == table


def test_flip_swaps_cofactors():
    table = 0b11001010
    flipped = tt_flip(table, 0, 3)
    assert tt_cofactor0(flipped, 0, 3) == tt_cofactor1(table, 0, 3)
    assert tt_cofactor1(flipped, 0, 3) == tt_cofactor0(table, 0, 3)


def test_permute_identity():
    table = 0xCA
    assert tt_permute(table, (0, 1, 2), 3) == table


def test_permute_semantics():
    # g(x0, x1) = f(x1, x0): swapping inputs of a non-symmetric function.
    f = var_table(0, 2)  # f = x0
    g = tt_permute(f, (1, 0), 2)
    assert g == var_table(1, 2)


def test_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        tt_permute(0xCA, (0, 0, 2), 3)


@settings(max_examples=40, deadline=None)
@given(table=tables(3))
def test_support_and_dependence_agree(table):
    support = tt_support(table, 3)
    for index in range(3):
        assert (index in support) == tt_depends_on(table, index, 3)


def test_simulate_cone_computes_and():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    table = simulate_cone(aig, node, [a >> 1, b >> 1])
    assert table == 0b1000


def test_simulate_cone_handles_complements():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a ^ 1, b)
    assert simulate_cone(aig, node, [a >> 1, b >> 1]) == 0b0100
    assert simulate_cone(aig, node ^ 1, [a >> 1, b >> 1]) == 0b1011


def test_simulate_cone_detects_cut_escape():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    inner = aig.add_and(a, b)
    outer = aig.add_and(inner, c)
    with pytest.raises(ValueError):
        simulate_cone(aig, outer, [a >> 1, c >> 1])


def test_simulate_cone_of_leaf_literal():
    aig = Aig()
    a = aig.add_pi()
    assert simulate_cone(aig, a, [a >> 1]) == 0b10
    assert simulate_cone(aig, a ^ 1, [a >> 1]) == 0b01


def test_simulate_cone_deep_chain_no_recursion_limit():
    aig = Aig()
    lit = aig.add_pi()
    pis = [lit >> 1]
    extra = aig.add_pi()
    pis.append(extra >> 1)
    for _ in range(4000):
        lit = aig.add_and(lit, extra)
        # keep it non-degenerate by alternating complement
        lit ^= 0
    table = simulate_cone(aig, lit, pis)
    assert table == 0b1000
