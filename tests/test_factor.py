"""Unit and property tests for algebraic factoring."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.logic.factor import (
    FactorNode,
    count_factored_ands,
    factor_masks,
    factored_to_aig,
)
from repro.logic.resyn import plan_resynthesis
from repro.logic.truth import full_mask, simulate_cone
from tests import factor_reference as reference
from tests.test_sop_isop import cone_tables, cover_masks, isop


def tables(num_vars: int):
    return st.integers(min_value=0, max_value=full_mask(num_vars))


def num_literals(tree: FactorNode) -> int:
    """Literal count of a factored form (the classic cost)."""
    if tree.kind == "lit":
        return 1
    return sum(num_literals(child) for child in tree.children)


def realize(tree: FactorNode, num_vars: int) -> int:
    """Truth table of a factored form, via a throwaway AIG."""
    aig = Aig()
    leaves = [aig.add_pi() for _ in range(num_vars)]
    literal = factored_to_aig(tree, leaves, aig.add_and)
    if literal <= 1:
        return 0 if literal == 0 else full_mask(num_vars)
    return simulate_cone(aig, literal, [leaf >> 1 for leaf in leaves])


def test_factor_constants():
    assert factor_masks([]).kind == "const0"
    assert factor_masks([0]).kind == "const1"


def test_factor_single_cube():
    tree = factor_masks(cover_masks([[0, 2]]))
    assert realize(tree, 2) == 0b1000


def test_factor_extracts_common_literal():
    # ab + ac  ->  a(b + c): 5 literals down to 3.
    tree = factor_masks(cover_masks([[0, 2], [0, 4]]))
    assert num_literals(tree) == 3
    assert realize(tree, 3) == (0b10001000 | 0b10100000)


def test_factor_kernel_extraction():
    # ac + ad + bc + bd = (a + b)(c + d): 8 literals down to 4.
    cover = cover_masks([[0, 4], [0, 6], [2, 4], [2, 6]])
    tree = factor_masks(cover)
    assert num_literals(tree) == 4
    assert realize(tree, 4) == realize(
        FactorNode.or_([FactorNode.and_([FactorNode.lit(a), FactorNode.lit(c)])
                        for a in (0, 2) for c in (4, 6)]),
        4,
    )


def test_factored_never_more_literals_than_sop():
    import random

    rng = random.Random(4)
    for _ in range(60):
        table = rng.getrandbits(16)
        cover = isop(table, 4)
        tree = factor_masks(cover)
        assert num_literals(tree) <= sum(c.bit_count() for c in cover)


@settings(max_examples=120, deadline=None)
@given(table=tables(4))
def test_factoring_preserves_function_4vars(table):
    tree = factor_masks(isop(table, 4))
    assert realize(tree, 4) == table


@settings(max_examples=30, deadline=None)
@given(table=tables(6))
def test_factoring_preserves_function_6vars(table):
    tree = factor_masks(isop(table, 6))
    assert realize(tree, 6) == table


@settings(max_examples=60, deadline=None)
@given(table=tables(4))
def test_count_factored_ands_matches_fresh_build(table):
    """The predicted AND count bounds the strash-free build."""
    tree = factor_masks(isop(table, 4))
    counted = count_factored_ands(tree)
    aig = Aig()
    leaves = [aig.add_pi() for _ in range(4)]
    factored_to_aig(tree, leaves, aig.add_and)
    assert aig.num_ands <= counted


def test_node_flattening():
    nested = FactorNode.and_(
        [
            FactorNode.lit(0),
            FactorNode.and_([FactorNode.lit(2), FactorNode.lit(4)]),
        ]
    )
    assert nested.kind == "and"
    assert len(nested.children) == 3


def test_or_identity_and_absorber():
    assert FactorNode.or_([]).kind == "const0"
    assert FactorNode.and_([]).kind == "const1"
    eaten = FactorNode.and_([FactorNode.lit(0), FactorNode("const0")])
    assert eaten.kind == "const0"


def test_to_string_renders():
    tree = factor_masks(cover_masks([[0, 2], [0, 5]]))
    text = tree.to_string()
    assert "a" in text and "+" in text


# ----------------------------------------------------------------------
# Differential: mask GFACTOR against the frozenset reference
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=cone_tables())
@example(case=(0, 4))
@example(case=(full_mask(4), 4))
@example(case=(0, 0))
@example(case=(1, 0))
@example(case=(0xE8F1, 4))
def test_factoring_matches_reference_node_for_node(case):
    """Both polarities' trees, and the planner's chosen tree, equal the
    reference pipeline's (frozenset ISOP, then frozenset GFACTOR)."""
    table, num_vars = case
    shape = reference.tree_shape
    trees = {}
    for function in (table, table ^ full_mask(num_vars)):
        cover = reference.reference_isop(function, num_vars)
        trees[function] = shape(reference.reference_factor(cover))
        assert shape(factor_masks(cover_masks(cover))) == trees[function]
    plan = plan_resynthesis.__wrapped__(table, num_vars)
    if plan is not None:
        function = table ^ full_mask(num_vars) if plan.output_neg else table
        assert shape(plan.tree) == trees[function]


def covers(max_literal: int = 11):
    """Arbitrary covers: repeated cubes, empty cubes and cubes holding
    both polarities of a variable included."""
    cube = st.frozensets(
        st.integers(min_value=0, max_value=max_literal), max_size=5
    )
    return st.lists(cube, max_size=10)


@settings(max_examples=150, deadline=None)
@given(cover=covers())
@example(cover=[])
@example(cover=[frozenset(), frozenset({0})])
@example(cover=[frozenset({0, 2}), frozenset({0, 2}), frozenset({4})])
def test_factoring_arbitrary_covers_matches_reference(cover):
    assert reference.tree_shape(
        factor_masks(cover_masks(cover))
    ) == reference.tree_shape(reference.reference_factor(cover))


def test_reference_never_takes_the_empty_divisor_fallback(monkeypatch):
    """GFACTOR's "division by the cube-free quotient made no progress"
    branch is unreachable: every kernel cube times the quotient's common
    cube is in every partial quotient.  The mask core omits the branch;
    this pins the argument on the reference, which keeps it."""

    def unreachable(cover):
        raise AssertionError(f"empty divisor fallback reached: {cover}")

    monkeypatch.setattr(reference, "_best_literal_cube", unreachable)
    rng = random.Random(22)
    for _ in range(3000):
        num_vars = rng.randint(1, 6)
        cover = [
            frozenset(
                rng.randrange(2 * num_vars)
                for _ in range(rng.randint(0, num_vars))
            )
            for _ in range(rng.randint(2, 9))
        ]
        reference.reference_factor(cover)
        table = rng.getrandbits(1 << num_vars)
        reference.reference_factor(reference.reference_isop(table, num_vars))
