"""Unit tests for resubstitution (the implemented future-work pass)."""

from repro.aig.aig import Aig
from repro.aig.validate import check_aig
from repro.algorithms.common import AliasView
from repro.algorithms.resub import find_resub, par_resub, seq_resub
from repro.engine import run_script
from repro.parallel.machine import ParallelMachine
from tests.conftest import assert_equivalent, build_random_aig


def zero_resub_circuit():
    """g recomputes f's function through different structure: f is a
    0-resub divisor for g."""
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    f = aig.add_and(a, b)
    # g = a & (b & (a | b)) == a & b, structurally distinct.
    a_or_b = aig.add_and(a ^ 1, b ^ 1) ^ 1
    g = aig.add_and(a, aig.add_and(b, a_or_b))
    top = aig.add_and(f, c)
    aig.add_po(top)
    aig.add_po(aig.add_and(g, c ^ 1))
    return aig


def test_find_resub_zero_via_side_divisor():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    d = aig.add_and(a, b)
    # Root recomputes a&b as a & !(a&!b); d is a side divisor.
    inner = aig.add_and(a, b ^ 1)
    root = aig.add_and(inner ^ 1, a)
    aig.add_po(d)
    aig.add_po(root)
    view = AliasView(aig)
    leaves = [a >> 1, b >> 1]
    cone = {inner >> 1, root >> 1}
    match, work = find_resub(
        view, root >> 1, sorted(leaves), cone, side_candidates=[d >> 1]
    )
    assert match is not None
    assert match.kind == "zero"
    assert match.lit_a == d
    assert work > 0


def test_find_resub_one():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    # root = a & b & c over leaves {a, b, c}: the 1-resub AND of the
    # side divisor (a&b) and leaf c.
    d = aig.add_and(a, b)
    x = aig.add_and(a, c)
    root = aig.add_and(x, b)
    aig.add_po(d)
    aig.add_po(root)
    view = AliasView(aig)
    match, _ = find_resub(
        view,
        root >> 1,
        sorted([a >> 1, b >> 1, c >> 1]),
        {x >> 1, root >> 1},
        side_candidates=[d >> 1],
    )
    assert match is not None


def test_seq_resub_preserves_function(seeded_aig):
    result = seq_resub(seeded_aig)
    check_aig(result.aig)
    assert result.nodes_after <= result.nodes_before
    assert_equivalent(seeded_aig, result.aig)


def test_seq_resub_merges_recomputed_logic():
    aig = zero_resub_circuit()
    result = seq_resub(aig)
    assert result.nodes_after < result.nodes_before
    assert_equivalent(aig, result.aig)


def test_seq_resub_gains_on_random_logic():
    aig = build_random_aig(33, num_ands=200)
    result = seq_resub(aig)
    assert result.details["replaced"] > 0
    assert result.nodes_after < result.nodes_before
    assert_equivalent(aig, result.aig)


def test_par_resub_preserves_function(seeded_aig):
    result = par_resub(seeded_aig)
    check_aig(result.aig)
    assert result.nodes_after <= result.nodes_before
    assert_equivalent(seeded_aig, result.aig)


def test_par_resub_records_kernels():
    machine = ParallelMachine()
    par_resub(build_random_aig(6, num_ands=150), machine=machine)
    names = {record.name for record in machine.records}
    assert "resub.search" in names
    assert "resub.replace" in names


def test_rs_command_in_sequences():
    aig = build_random_aig(8, num_ands=150)
    seq = run_script(aig, "b; rs", engine="seq")
    gpu = run_script(aig, "b; rs", engine="gpu")
    assert_equivalent(aig, seq.aig)
    assert_equivalent(aig, gpu.aig)
    assert seq.nodes <= aig.num_ands
    assert gpu.nodes <= aig.num_ands


def test_resub_after_refactor_composes():
    from repro.algorithms.seq_refactor import seq_refactor

    aig = build_random_aig(18, num_ands=200)
    refactored = seq_refactor(aig, max_cut_size=8)
    resubbed = seq_resub(refactored.aig)
    assert resubbed.nodes_after <= refactored.nodes_after
    assert_equivalent(aig, resubbed.aig)
