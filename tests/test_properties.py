"""Hypothesis property tests over the whole optimization stack.

Every pass must preserve functional equivalence on arbitrary AIGs, and
the paper's structural theorems must hold on arbitrary inputs — this is
the randomized analogue of the paper's "all generated AIGs passed
equivalence checking".
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.validate import check_aig
from repro.algorithms.dedup import dedup_and_dangling
from repro.algorithms.par_balance import par_balance
from repro.algorithms.par_refactor import par_refactor
from repro.algorithms.par_rewrite import par_rewrite
from repro.algorithms.seq_balance import seq_balance
from repro.algorithms.seq_refactor import seq_refactor
from repro.algorithms.seq_rewrite import seq_rewrite
from tests.conftest import assert_equivalent, build_random_aig

aig_seeds = st.integers(min_value=0, max_value=100_000)
aig_sizes = st.integers(min_value=5, max_value=150)


@settings(max_examples=12, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_seq_balance_equivalence_and_depth(seed, size):
    aig = build_random_aig(seed, num_ands=size)
    result = seq_balance(aig)
    check_aig(result.aig)
    assert result.levels_after <= result.levels_before
    assert_equivalent(aig, result.aig)


@settings(max_examples=12, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_par_balance_matches_seq_levels(seed, size):
    """Property 3 as an executable property."""
    aig = build_random_aig(seed, num_ands=size)
    seq = seq_balance(aig)
    par = par_balance(aig)
    check_aig(par.aig)
    assert par.levels_after == seq.levels_after
    assert_equivalent(aig, par.aig)


#: Known Property 3 counterexamples, ``(seed, size)`` of
#: ``build_random_aig`` -> ``((par levels, par ANDs), (seq levels, seq
#: ANDs))`` after ``par_balance`` and ``seq_balance``.  ``par_balance``
#: ends deeper on the first and third and shallower on the second; the
#: random property test drew the last two.
PROPERTY3_COUNTEREXAMPLES = {
    (75638, 100): ((12, 98), (11, 88)),
    (107, 33): ((5, 29), (6, 30)),
    (13581, 65): ((9, 63), (8, 53)),
}


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a cluster holds a duplicate input and/or a complementary "
        "pair (x and !x); whether they fold depends on the Huffman "
        "tie-break by literal id, so reconstruction order changes the "
        "balanced depth"
    ),
)
@pytest.mark.parametrize("seed,size", list(PROPERTY3_COUNTEREXAMPLES))
def test_par_balance_matches_seq_levels_counterexample(seed, size):
    aig = build_random_aig(seed, num_ands=size)
    assert par_balance(aig).levels_after == seq_balance(aig).levels_after


@pytest.mark.parametrize("seed,size", list(PROPERTY3_COUNTEREXAMPLES))
def test_par_balance_counterexample_stays_equivalent(seed, size):
    """A counterexample costs (or saves) depth, never correctness."""
    aig = build_random_aig(seed, num_ands=size)
    par = par_balance(aig)
    check_aig(par.aig)
    assert_equivalent(aig, par.aig)
    seq = seq_balance(aig)
    assert (
        (par.levels_after, par.nodes_after),
        (seq.levels_after, seq.nodes_after),
    ) == PROPERTY3_COUNTEREXAMPLES[seed, size]


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_seq_refactor_equivalence(seed, size):
    aig = build_random_aig(seed, num_ands=size)
    result = seq_refactor(aig, max_cut_size=8)
    check_aig(result.aig)
    assert result.nodes_after <= result.nodes_before
    assert_equivalent(aig, result.aig)


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_par_refactor_equivalence(seed, size):
    """Also exercises Theorem 1's disjointness assertion internally."""
    aig = build_random_aig(seed, num_ands=size)
    result = par_refactor(aig, max_cut_size=8)
    check_aig(result.aig)
    assert result.nodes_after <= result.nodes_before
    assert_equivalent(aig, result.aig)


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_rewrite_equivalence_both_engines(seed, size):
    aig = build_random_aig(seed, num_ands=size)
    seq = seq_rewrite(aig, zero_gain=bool(seed % 2))
    check_aig(seq.aig)
    assert_equivalent(aig, seq.aig)
    par = par_rewrite(aig, zero_gain=bool(seed % 2))
    check_aig(par.aig)
    assert_equivalent(aig, par.aig)


@settings(max_examples=12, deadline=None)
@given(seed=aig_seeds)
def test_dedup_is_conservative(seed):
    """Cleanup of an already-clean AIG only drops unreachable logic."""
    aig = build_random_aig(seed)
    reference = aig.clone()
    compact_count = aig.compact().num_ands
    result = dedup_and_dangling(aig, {})
    assert result.num_ands == compact_count
    assert_equivalent(reference, result)


@settings(max_examples=6, deadline=None)
@given(seed=aig_seeds)
def test_pass_composition_stays_equivalent(seed):
    """A random pipeline of passes preserves the function end to end."""
    import random

    rng = random.Random(seed)
    aig = build_random_aig(seed, num_ands=120)
    current = aig
    passes = [
        lambda g: seq_balance(g),
        lambda g: par_balance(g),
        lambda g: seq_rewrite(g, zero_gain=True),
        lambda g: par_refactor(g, max_cut_size=6),
    ]
    for _ in range(3):
        step = rng.choice(passes)(current)
        check_aig(step.aig)
        current = step.aig
    assert_equivalent(aig, current)
