"""Unit and property tests for the ROBDD package."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.cec.bdd import BddManager, bdd_equivalent, build_bdds
from repro.cec.simulate import evaluate
from tests.conftest import build_random_aig


def test_terminals():
    manager = BddManager(2)
    assert manager.false == 0
    assert manager.true == 1
    assert manager.is_const(0) and manager.is_const(1)


def test_variable_structure():
    manager = BddManager(3)
    x = manager.variable(1)
    assert manager.var_of(x) == 1
    assert manager.low(x) == 0
    assert manager.high(x) == 1
    with pytest.raises(ValueError):
        manager.variable(3)


def test_canonicity_same_function_same_node():
    manager = BddManager(3)
    a, b, c = (manager.variable(i) for i in range(3))
    left = manager.and_(manager.and_(a, b), c)
    right = manager.and_(a, manager.and_(b, c))
    assert left == right


def test_boolean_identities():
    manager = BddManager(2)
    a, b = manager.variable(0), manager.variable(1)
    assert manager.and_(a, manager.not_(a)) == manager.false
    assert manager.or_(a, manager.not_(a)) == manager.true
    assert manager.xor(a, a) == manager.false
    assert manager.xor(a, manager.false) == a
    # De Morgan
    assert manager.not_(manager.and_(a, b)) == manager.or_(
        manager.not_(a), manager.not_(b)
    )


def test_evaluate_follows_paths():
    manager = BddManager(2)
    a, b = manager.variable(0), manager.variable(1)
    xor = manager.xor(a, b)
    assert manager.evaluate(xor, [False, True])
    assert manager.evaluate(xor, [True, False])
    assert not manager.evaluate(xor, [True, True])


def test_count_sat():
    manager = BddManager(3)
    a, b, c = (manager.variable(i) for i in range(3))
    assert manager.count_sat(manager.true) == 8
    assert manager.count_sat(manager.false) == 0
    assert manager.count_sat(a) == 4
    assert manager.count_sat(manager.and_(a, b)) == 2
    assert manager.count_sat(manager.and_(manager.and_(a, b), c)) == 1
    assert manager.count_sat(manager.or_(a, b)) == 6
    assert manager.count_sat(manager.xor(a, c)) == 4


def test_cofactor():
    manager = BddManager(2)
    a, b = manager.variable(0), manager.variable(1)
    conj = manager.and_(a, b)
    assert manager.cofactor(conj, 0, True) == b
    assert manager.cofactor(conj, 0, False) == manager.false


def test_support_and_size():
    manager = BddManager(4)
    a, c = manager.variable(0), manager.variable(2)
    conj = manager.and_(a, c)
    assert manager.support(conj) == {0, 2}
    assert manager.size(conj) == 2
    assert manager.size(manager.true) == 0


def test_node_limit():
    manager = BddManager(4, max_nodes=6)
    with pytest.raises(MemoryError):
        node = manager.true
        for index in range(4):
            node = manager.xor(node, manager.variable(index))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_bdd_matches_simulation(seed):
    """The BDD of a random AIG agrees with direct simulation."""
    import random

    aig = build_random_aig(seed, num_pis=6, num_ands=60)
    manager, outputs = build_bdds(aig)
    rng = random.Random(seed)
    for _ in range(16):
        assignment = [rng.random() < 0.5 for _ in range(6)]
        simulated = evaluate(aig, assignment)
        decided = [
            manager.evaluate(node, assignment) for node in outputs
        ]
        assert simulated == decided


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    pis=st.integers(min_value=2, max_value=10),
    size=st.integers(min_value=5, max_value=100),
    po=st.integers(min_value=0, max_value=1_000),
)
def test_bdd_equivalent_cross_checks_sat_verdicts(seed, pis, size, po):
    """The BDD oracle and the SAT-based checker agree on the parallel
    scripts' outputs and on a copy with one PO complemented."""
    from repro.cec.equivalence import CecStatus, check_equivalence
    from repro.engine import run_script

    aig = build_random_aig(seed, num_pis=pis, num_ands=size)
    for script in ("resyn2", "rfc_resyn"):
        optimized = run_script(aig, script, engine="gpu").aig
        mutated = optimized.clone()
        index = po % mutated.num_pos
        mutated.set_po(index, mutated.pos[index] ^ 1)
        for other, equivalent in ((optimized, True), (mutated, False)):
            assert bdd_equivalent(aig, other) is equivalent
            verdict = check_equivalence(aig, other)
            assert verdict.status is (
                CecStatus.EQUIVALENT
                if equivalent
                else CecStatus.NOT_EQUIVALENT
            )
            if not equivalent:
                cex = verdict.counterexample
                failing = verdict.failing_output
                assert evaluate(aig, cex)[failing] != (
                    evaluate(other, cex)[failing]
                )


def test_bdd_equivalent_interface_mismatch():
    small = Aig()
    small.add_pi()
    small.add_po(2)
    with pytest.raises(ValueError):
        bdd_equivalent(small, build_random_aig(0))


def test_bdd_of_adder_counts():
    """Semantic spot-check: #assignments with carry-out set is the
    number of (a, b) pairs with a + b >= 2^n."""
    from repro.benchgen.arith import adder

    aig = adder(4)
    manager, outputs = build_bdds(aig)
    carry = outputs[-1]
    expected = sum(
        1 for a in range(16) for b in range(16) if a + b >= 16
    )
    assert manager.count_sat(carry) == expected
