"""Unit tests for sequential and parallel refactoring."""

import importlib

import pytest

from repro.aig.aig import Aig
from repro.aig.validate import check_aig
from repro.algorithms.common import collapse_into_ffcs
from repro.algorithms.par_refactor import par_refactor
from repro.algorithms.seq_refactor import seq_refactor
from repro.benchgen.arith import divider, multiplier
from repro.parallel.machine import ParallelMachine, SeqMeter
from tests.conftest import (
    assert_equivalent,
    build_random_aig,
    capture_cleanup_input,
)


def redundant_aig():
    """A circuit with obvious refactoring gains: repeated sub-products."""
    aig = Aig("redundant")
    a, b, c, d = (aig.add_pi() for _ in range(4))
    # (a&b&c) | (a&b&d) built without sharing the factored form.
    left = aig.add_and(aig.add_and(a, b), c)
    right = aig.add_and(aig.add_and(b, a), d)  # shares a&b via strash
    out = aig.add_and(left ^ 1, right ^ 1)
    aig.add_po(out ^ 1)
    return aig


# ----------------------------------------------------------------------
# Sequential refactoring
# ----------------------------------------------------------------------


def test_seq_refactor_preserves_function(seeded_aig):
    result = seq_refactor(seeded_aig, max_cut_size=8)
    check_aig(result.aig)
    assert_equivalent(seeded_aig, result.aig)


def test_seq_refactor_never_increases_nodes(seeded_aig):
    result = seq_refactor(seeded_aig, max_cut_size=8)
    assert result.nodes_after <= result.nodes_before


def test_seq_refactor_finds_gains_on_random_logic():
    aig = build_random_aig(21, num_ands=200)
    result = seq_refactor(aig, max_cut_size=8)
    assert result.nodes_after < result.nodes_before


def test_seq_refactor_zero_gain_allows_restructure():
    aig = build_random_aig(2, num_ands=150)
    strict = seq_refactor(aig, max_cut_size=8)
    zero = seq_refactor(aig, max_cut_size=8, zero_gain=True)
    assert zero.details["replaced"] >= strict.details["replaced"]
    assert_equivalent(aig, zero.aig)


def test_seq_refactor_respects_cut_size():
    aig = build_random_aig(3, num_ands=100)
    small = seq_refactor(aig, max_cut_size=4)
    large = seq_refactor(aig, max_cut_size=10)
    assert_equivalent(aig, small.aig)
    assert_equivalent(aig, large.aig)


def test_seq_refactor_meters_work():
    aig = build_random_aig(3)
    meter = SeqMeter()
    seq_refactor(aig, meter=meter)
    assert meter.work > 0


def test_seq_refactor_on_arithmetic():
    aig = divider(6)
    result = seq_refactor(aig)
    assert result.nodes_after <= result.nodes_before
    assert_equivalent(aig, result.aig)


# ----------------------------------------------------------------------
# Collapse stage (Theorem 1)
# ----------------------------------------------------------------------


def test_collapse_produces_disjoint_partition(seeded_aig):
    """Theorem 1: FFC cones are pairwise disjoint (asserted inside),
    and together they cover all PO-reachable AND nodes."""
    cones = collapse_into_ffcs(seeded_aig, 8, ParallelMachine())
    covered: set[int] = set()
    for job in cones:
        assert not (covered & job.cut.cone)
        covered |= job.cut.cone
    assert covered == set(seeded_aig.post_order().tolist())


def test_collapse_cones_are_fanout_free(seeded_aig):
    """Definition 1: every non-root cone member's fanouts stay inside."""
    from repro.aig.traversal import po_fanout_mask

    from tests.graph_reference import fanout_lists

    cones = collapse_into_ffcs(seeded_aig, 8, ParallelMachine())
    fanouts = fanout_lists(seeded_aig)
    po_mask = po_fanout_mask(seeded_aig)
    for job in cones:
        for member in job.cut.cone:
            if member == job.cut.root:
                continue
            assert not po_mask[member]
            assert all(reader in job.cut.cone for reader in fanouts[member])


def test_collapse_respects_cut_limit(seeded_aig):
    for limit in (4, 8):
        cones = collapse_into_ffcs(seeded_aig, limit, ParallelMachine())
        for job in cones:
            assert len(job.cut.leaves) <= limit


def test_collapse_without_early_stop_yields_mffcs(seeded_aig):
    """With no cut limit the identified FFCs are exactly MFFCs."""
    from tests.test_mffc import mffc_nodes

    cones = collapse_into_ffcs(
        seeded_aig, 8, ParallelMachine(), early_stop=False
    )
    for job in cones:
        assert job.cut.cone == mffc_nodes(seeded_aig, job.cut.root)


def test_collapse_with_unlimited_cut_size_yields_mffcs(seeded_aig):
    """An unlimited ``max_cut_size`` must behave like no early stop.

    Regression guard for the move of :func:`collapse_into_ffcs` into
    ``repro.algorithms.common``: with the limit above any reachable
    leaf count, the early-stop predicate never fires, so the collected
    cones are again exactly the MFFCs of their roots.
    """
    from tests.test_mffc import mffc_nodes

    unlimited = seeded_aig.num_vars + 2
    cones = collapse_into_ffcs(seeded_aig, unlimited, ParallelMachine())
    for job in cones:
        assert job.cut.cone == mffc_nodes(seeded_aig, job.cut.root)


# ----------------------------------------------------------------------
# Parallel refactoring end to end
# ----------------------------------------------------------------------


def test_par_refactor_preserves_function(seeded_aig):
    result = par_refactor(seeded_aig, max_cut_size=8)
    check_aig(result.aig)
    assert_equivalent(seeded_aig, result.aig)


def test_par_refactor_never_increases_nodes(seeded_aig):
    result = par_refactor(seeded_aig, max_cut_size=8)
    assert result.nodes_after <= result.nodes_before


def test_par_refactor_gains_on_structured_logic():
    aig = divider(8)
    result = par_refactor(aig)
    assert result.nodes_after < result.nodes_before
    assert_equivalent(aig, result.aig)


def test_par_refactor_replace_modes_agree():
    """Sequential-replacement mode changes accounting, not the result."""
    aig = build_random_aig(12, num_ands=150)
    parallel = par_refactor(aig, max_cut_size=8)
    sequential = par_refactor(
        aig, max_cut_size=8, replace_mode="sequential"
    )
    assert parallel.nodes_after == sequential.nodes_after
    assert parallel.levels_after == sequential.levels_after
    assert_equivalent(parallel.aig, sequential.aig)


def test_par_refactor_sequential_mode_charges_host():
    aig = build_random_aig(12, num_ands=150)
    m_par, m_seq = ParallelMachine(), ParallelMachine()
    par_refactor(aig, max_cut_size=8, machine=m_par)
    par_refactor(
        aig, max_cut_size=8, machine=m_seq, replace_mode="sequential"
    )
    assert m_seq.host_time() > m_par.host_time()


def test_par_refactor_rejects_bad_mode():
    with pytest.raises(ValueError):
        par_refactor(build_random_aig(0), replace_mode="warp")


def test_par_refactor_without_cleanup_still_equivalent(
    seeded_aig, monkeypatch
):
    """The replace stage's graph and alias map are sound before dedup:
    compacting them alone already gives an equivalent graph."""
    module = importlib.import_module("repro.algorithms.par_refactor")
    captured = capture_cleanup_input(monkeypatch, module)
    par_refactor(seeded_aig, max_cut_size=8)
    compacted = captured["aig"].compact(resolve=captured["alias"])
    assert_equivalent(seeded_aig, compacted)


def test_par_refactor_repeated_converges_downward():
    aig = multiplier(8)
    first = par_refactor(aig)
    second = par_refactor(first.aig)
    assert second.nodes_after <= first.nodes_after
    assert_equivalent(aig, second.aig)


def test_par_refactor_records_stage_kernels():
    machine = ParallelMachine()
    par_refactor(build_random_aig(5), machine=machine)
    names = {record.name for record in machine.records}
    assert "rf.collapse" in names
    assert "rf.resynthesize" in names
    assert "rf.insertion_round" in names
    assert "rf.seed_table" in names
