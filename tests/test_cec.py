"""Unit tests for simulation, Tseitin encoding and equivalence checking."""

import random

import pytest

from repro.aig.aig import Aig
from repro.cec.equivalence import (
    CecStatus,
    FraigSweeper,
    check_equivalence,
    miter,
)
from repro.cec.sat import SatResult
from repro.cec.simulate import (
    evaluate,
    random_patterns,
    simulate,
    simulate_all,
)
from tests.conftest import build_random_aig


def xor_aig():
    aig = Aig("xor")
    a, b = aig.add_pi(), aig.add_pi()
    both = aig.add_and(a, b)
    neither = aig.add_and(a ^ 1, b ^ 1)
    aig.add_po(aig.add_and(both ^ 1, neither ^ 1))
    return aig


def xor_aig_alt():
    aig = Aig("xor_alt")
    a, b = aig.add_pi(), aig.add_pi()
    left = aig.add_and(a, b ^ 1)
    right = aig.add_and(a ^ 1, b)
    aig.add_po(aig.add_and(left ^ 1, right ^ 1) ^ 1)
    return aig


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------


def test_evaluate_xor():
    aig = xor_aig()
    assert evaluate(aig, [False, False]) == [False]
    assert evaluate(aig, [True, False]) == [True]
    assert evaluate(aig, [True, True]) == [False]


def test_simulate_word_parallel():
    aig = xor_aig()
    words = simulate(aig, [0b0011, 0b0101], width=4)
    assert words == [0b0110]


def test_simulate_complemented_po():
    aig = Aig()
    a = aig.add_pi()
    aig.add_po(a ^ 1)
    assert simulate(aig, [0b01], width=2) == [0b10]


def test_simulate_all_covers_every_var():
    aig = build_random_aig(3)
    values = simulate_all(aig, random_patterns(aig.num_pis, 64), 64)
    assert len(values) == aig.num_vars


def test_simulate_wrong_input_count():
    aig = xor_aig()
    with pytest.raises(ValueError):
        simulate(aig, [0], width=1)


def test_random_patterns_deterministic():
    assert random_patterns(4, 128, seed=9) == random_patterns(4, 128, seed=9)
    assert random_patterns(4, 128, seed=9) != random_patterns(4, 128, seed=10)


# ----------------------------------------------------------------------
# CNF
# ----------------------------------------------------------------------


def test_tseitin_consistency_with_simulation():
    """The sweeper's lazy Tseitin encoding agrees with simulation."""
    aig = build_random_aig(5, num_pis=5, num_ands=40)
    sweeper = FraigSweeper(aig)
    swept, po_lits = sweeper.run()
    for lit in po_lits:
        sweeper._encode_cone(lit >> 1)
    mapping = sweeper.mapping
    rng = random.Random(5)
    for _ in range(8):
        # Force a PI assignment and compare the PO values with
        # simulation of the source graph.
        assignment = [rng.random() < 0.5 for _ in range(aig.num_pis)]
        assumptions = []
        for var, value in zip(swept.pis, assignment):
            cnf_var = mapping.var_map.get(var)
            if cnf_var is not None:
                assumptions.append(cnf_var if value else -cnf_var)
        assert sweeper.solver.solve(assumptions=assumptions) is (
            SatResult.SAT
        )
        simulated = evaluate(aig, assignment)
        for po_index, po_lit in enumerate(po_lits):
            cnf_lit = mapping.cnf_lit(po_lit)
            value = sweeper.solver.model_value(abs(cnf_lit))
            if cnf_lit < 0:
                value = not value
            assert value == simulated[po_index]


# ----------------------------------------------------------------------
# Miter and CEC
# ----------------------------------------------------------------------


def test_miter_folds_identical_circuits():
    aig = build_random_aig(1)
    joint = miter(aig, aig.clone())
    assert all(lit == 0 for lit in joint.pos)


def test_miter_rejects_interface_mismatch():
    left = xor_aig()
    other = Aig()
    other.add_pi()
    other.add_po(2)
    with pytest.raises(ValueError):
        miter(left, other)


def test_equivalent_restructured():
    result = check_equivalence(xor_aig(), xor_aig_alt())
    assert result.status is CecStatus.EQUIVALENT


def test_not_equivalent_with_counterexample():
    left = xor_aig()
    right = xor_aig()
    right.set_po(0, right.pos[0] ^ 1)
    result = check_equivalence(left, right)
    assert result.status is CecStatus.NOT_EQUIVALENT
    assert result.counterexample is not None
    cex = result.counterexample
    assert evaluate(left, cex) != evaluate(right, cex)


def test_subtle_inequivalence_found_by_sat():
    """Differs on exactly one input pattern — simulation may miss it,
    the SAT stage must not."""
    def cone(force):
        aig = Aig()
        pis = [aig.add_pi() for _ in range(6)]
        total = pis[0]
        for literal in pis[1:]:
            total = aig.add_and(total, literal)
        if force:
            aig.add_po(total)
        else:
            aig.add_po(0)
        return aig

    result = check_equivalence(cone(True), cone(False), sim_width=4, seed=1)
    assert result.status is CecStatus.NOT_EQUIVALENT


def test_fraig_sweeper_merges_duplicates():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    # y = a & !(a & !b) = a & (!a | b) = a & b, structurally distinct.
    y = aig.add_and(aig.add_and(a, b ^ 1) ^ 1, a)
    aig.add_po(x)
    aig.add_po(y)
    sweeper = FraigSweeper(aig, sim_width=256)
    swept, po_lits = sweeper.run()
    assert po_lits[0] == po_lits[1]
    assert sweeper.merges >= 1


def test_sweeper_proves_constant():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    # (a & b) & !a is constant false but structurally non-trivial.
    node = aig.add_raw_and(aig.add_and(a, b), a ^ 1)
    aig.add_po(node)
    sweeper = FraigSweeper(aig, sim_width=128)
    swept, po_lits = sweeper.run()
    assert po_lits[0] == 0


def test_cec_on_random_optimization_like_pairs():
    from repro.algorithms.seq_balance import seq_balance

    for seed in range(3):
        aig = build_random_aig(seed)
        result = seq_balance(aig)
        verdict = check_equivalence(aig, result.aig, sim_width=256)
        assert verdict.status is CecStatus.EQUIVALENT
