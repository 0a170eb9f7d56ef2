"""Edge-case hardening: degenerate circuits through every pass."""

import pytest

from repro.aig.aig import Aig
from repro.aig.validate import check_aig
from repro.algorithms.par_balance import par_balance
from repro.algorithms.par_refactor import par_refactor
from repro.algorithms.par_rewrite import par_rewrite
from repro.algorithms.seq_balance import seq_balance
from repro.algorithms.seq_refactor import seq_refactor
from repro.algorithms.seq_rewrite import seq_rewrite
from repro.engine import run_script
from tests.conftest import assert_equivalent

ALL_PASSES = [
    seq_balance,
    par_balance,
    seq_refactor,
    par_refactor,
    seq_rewrite,
    par_rewrite,
]


def empty_aig():
    aig = Aig("empty")
    aig.add_pi()
    return aig


def const_po_aig():
    aig = Aig("consts")
    aig.add_pi()
    aig.add_po(0)
    aig.add_po(1)
    return aig


def pi_passthrough():
    aig = Aig("wire")
    a = aig.add_pi()
    aig.add_po(a)
    aig.add_po(a ^ 1)
    return aig


def single_and():
    aig = Aig("and2")
    a, b = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.add_and(a, b))
    return aig


def duplicate_pos():
    aig = Aig("dup_pos")
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    aig.add_po(node)
    aig.add_po(node)
    aig.add_po(node ^ 1)
    return aig


@pytest.mark.parametrize("opt", ALL_PASSES, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "make",
    [empty_aig, const_po_aig, pi_passthrough, single_and, duplicate_pos],
    ids=["empty", "const", "wire", "and2", "dup_pos"],
)
def test_degenerate_circuits_survive_every_pass(opt, make):
    aig = make()
    result = opt(aig)
    check_aig(result.aig)
    assert result.aig.num_pis == aig.num_pis
    assert result.aig.num_pos == aig.num_pos
    if aig.num_pos:
        assert_equivalent(aig, result.aig, width=64)


def test_full_sequence_on_degenerate_circuits():
    for make in (const_po_aig, pi_passthrough, duplicate_pos):
        aig = make()
        for engine in ("seq", "gpu"):
            result = run_script(aig, "resyn2", engine=engine)
            check_aig(result.aig)
            assert_equivalent(aig, result.aig, width=64)


def test_wide_flat_and():
    """A single giant conjunction balances to logarithmic depth."""
    aig = Aig("wide")
    literals = [aig.add_pi() for _ in range(257)]
    acc = literals[0]
    for literal in literals[1:]:
        acc = aig.add_and(acc, literal)
    aig.add_po(acc)
    for balance in (seq_balance, par_balance):
        result = balance(aig)
        assert result.levels_after == 9  # ceil(log2(257))
        assert_equivalent(aig, result.aig, width=64)


def test_deep_inverter_chainish_structure():
    """Alternating complement chain: nothing to balance, all passes
    must terminate and stay equivalent."""
    aig = Aig("invchain")
    a, b = aig.add_pi(), aig.add_pi()
    lit = a
    for _ in range(300):
        lit = aig.add_and(lit ^ 1, b) ^ 1
        lit = aig.add_and(lit, b ^ 1)
    aig.add_po(lit)
    for opt in (seq_balance, par_refactor, seq_rewrite):
        result = opt(aig)
        check_aig(result.aig)
        assert_equivalent(aig, result.aig, width=64)


def test_shared_fanin_double_edge_variants():
    """Nodes of the form AND(x, !x) folded at creation; raw duplicates
    cleaned by the passes without breaking equivalence."""
    aig = Aig("double_edges")
    a, b = aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    y = aig.add_raw_and(x, x ^ 1)  # constant-false in disguise
    aig.add_po(aig.add_raw_and(y ^ 1, x))
    reference = aig.clone()
    result = par_refactor(aig)
    check_aig(result.aig)
    assert_equivalent(reference, result.aig, width=64)
