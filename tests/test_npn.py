"""Unit and property tests for NPN canonicalization."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.logic.npn import (
    MAX_NPN_VARS,
    NpnTransform,
    npn_canon,
    npn_leaf_assignment,
)
from repro.logic.truth import full_mask, simulate_cone, tt_not
from tests.test_truth import tt_flip, tt_permute


def npn_apply(transform: NpnTransform, table: int) -> int:
    """Apply ``transform`` to ``table``, minterm by minterm."""
    size = 1 << transform.num_vars
    mask = full_mask(transform.num_vars)
    out = 0
    for minterm in range(size):
        source = 0
        for index in range(transform.num_vars):
            if minterm >> index & 1:
                source |= 1 << transform.perm[index]
        source ^= transform.phase
        if table >> source & 1:
            out |= 1 << minterm
    return out ^ mask if transform.out_neg else out


def npn_class_count(num_vars: int) -> int:
    """Number of distinct canonical forms over every table of the width.

    Calls the uncached canonicalizer, so counting does not fill the
    process-wide cache with every table of the width.
    """
    canon = npn_canon.__wrapped__
    mask = full_mask(num_vars)
    return len({canon(table, num_vars).canon for table in range(mask + 1)})


def reference_npn_canon(table: int, num_vars: int) -> NpnTransform:
    """Scalar exhaustive NPN canonicalization: the semantic reference.

    Scans every (perm, phase) minterm map, perm-major, and both output
    phases, keeping a candidate only when it is strictly smaller than
    the best so far.
    """
    size = 1 << num_vars
    mask = full_mask(num_vars)
    best = None
    for perm in permutations(range(num_vars)):
        scatter = []
        for minterm in range(size):
            source = 0
            for index in range(num_vars):
                if minterm >> index & 1:
                    source |= 1 << perm[index]
            scatter.append(source)
        for phase in range(size):
            transformed = 0
            for minterm in range(size):
                if table >> (scatter[minterm] ^ phase) & 1:
                    transformed |= 1 << minterm
            for out_neg in (False, True):
                candidate = transformed ^ mask if out_neg else transformed
                if best is None or candidate < best.canon:
                    best = NpnTransform(
                        candidate, perm, phase, out_neg, num_vars
                    )
    return best


def _fields(transform: NpnTransform) -> tuple:
    return (
        transform.canon, transform.perm, transform.phase, transform.out_neg
    )


def test_canon_matches_reference_on_all_small_tables():
    for num_vars in range(4):
        for table in range(1 << (1 << num_vars)):
            assert _fields(npn_canon.__wrapped__(table, num_vars)) == (
                _fields(reference_npn_canon(table, num_vars))
            ), (num_vars, hex(table))


def test_canon_matches_reference_on_sampled_4_input_tables():
    rng = random.Random(17)
    tables = [0x0000, 0xFFFF, 0x6996, 0x8000, 0x7FFF, 0xCA35]
    tables += [rng.getrandbits(16) for _ in range(250)]
    for table in tables:
        assert _fields(npn_canon.__wrapped__(table, 4)) == (
            _fields(reference_npn_canon(table, 4))
        ), hex(table)


def test_transform_reaches_canon():
    for table in (0x0000, 0xFFFF, 0xCA35, 0x8000, 0x6996):
        transform = npn_canon(table, 4)
        assert npn_apply(transform, table) == transform.canon


@settings(max_examples=80, deadline=None)
@given(table=st.integers(min_value=0, max_value=0xFFFF))
def test_canon_not_larger_than_original(table):
    assert npn_canon(table, 4).canon <= table


@settings(max_examples=40, deadline=None)
@given(
    table=st.integers(min_value=0, max_value=0xFF),
    flips=st.integers(min_value=0, max_value=7),
    out_neg=st.booleans(),
    perm_seed=st.integers(min_value=0, max_value=5),
)
def test_canon_invariant_under_npn_transforms(
    table, flips, out_neg, perm_seed
):
    """NPN-equivalent functions share one canonical representative."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    variant = table
    for index in range(3):
        if flips >> index & 1:
            variant = tt_flip(variant, index, 3)
    variant = tt_permute(variant, perms[perm_seed], 3)
    if out_neg:
        variant = tt_not(variant, 3)
    assert npn_canon(variant, 3).canon == npn_canon(table, 3).canon


def test_class_counts_small():
    # Known NPN class counts: 1, 2, 4, 14 and 222 for n = 0..4.
    assert npn_class_count(0) == 1
    assert npn_class_count(1) == 2
    assert npn_class_count(2) == 4
    assert npn_class_count(3) == 14
    hits = npn_canon.cache_info()
    assert npn_class_count(4) == 222
    assert npn_canon.cache_info() == hits  # counting stays uncached


def test_rejects_too_many_vars():
    with pytest.raises(ValueError):
        npn_canon(0, MAX_NPN_VARS + 1)


def test_rejects_wide_table():
    with pytest.raises(ValueError):
        npn_canon(0x1FFFF, 4)


def test_leaf_assignment_roundtrip():
    """Instantiating the canonical structure realizes the original."""
    from repro.logic.factor import factor_masks, factored_to_aig
    from repro.logic.isop import isop_cover

    rng = random.Random(11)
    for _ in range(40):
        table = rng.getrandbits(16)
        transform = npn_canon(table, 4)
        canon = transform.canon
        tree = factor_masks(isop_cover(canon, canon, 4, {}))
        aig = Aig()
        leaves = [aig.add_pi() for _ in range(4)]
        inputs, out_neg = npn_leaf_assignment(transform, leaves)
        literal = factored_to_aig(tree, inputs, aig.add_and)
        if out_neg:
            literal ^= 1
        if literal <= 1:
            realized = 0 if literal == 0 else full_mask(4)
        else:
            realized = simulate_cone(
                aig, literal, [leaf >> 1 for leaf in leaves]
            )
        assert realized == table, hex(table)
