"""Unit and property tests for MFFC computation.

The passes dereference cones with the commit layer's
:func:`~repro.commit.deref_cone` / :func:`~repro.commit.ref_cone_back`
pair; restricted to the set of live ANDs, the cone it dereferences is
the root's MFFC.  Property 2 of the paper — MFFCs of different nodes
are laminar (nested or disjoint, never partially overlapping) — is
checked on that walk, on randomized AIGs with hypothesis.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.aig.traversal import fanout_counts
from repro.commit import deref_cone, ref_cone_back
from tests.conftest import build_random_aig


def mffc_nodes(aig: Aig, root: int, nref=None) -> set[int]:
    """The MFFC of ``root``: ``deref_cone`` over every live AND, with
    the reference counts restored afterwards."""
    if nref is None:
        nref = fanout_counts(aig)
    cone = deref_cone(aig, root, set(aig.and_vars()), nref)
    ref_cone_back(aig, cone, nref)
    return cone


def make_chain():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    ab = aig.add_and(a, b)
    abc = aig.add_and(ab, c)
    aig.add_po(abc)
    return aig, ab >> 1, abc >> 1


def test_mffc_of_chain_root_contains_chain():
    aig, ab_var, abc_var = make_chain()
    assert mffc_nodes(aig, abc_var) == {ab_var, abc_var}


def test_mffc_excludes_shared_nodes():
    # Paper's Figure 2 situation: a node driving logic outside the
    # cone must not join the MFFC.
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    shared = aig.add_and(a, b)
    upper = aig.add_and(shared, c)
    other = aig.add_and(shared, c ^ 1)
    aig.add_po(upper)
    aig.add_po(other)
    assert mffc_nodes(aig, upper >> 1) == {upper >> 1}


def test_mffc_restores_reference_counts():
    aig, _, abc_var = make_chain()
    nref = fanout_counts(aig)
    before = list(nref)
    mffc_nodes(aig, abc_var, nref)
    assert nref == before


def test_deref_and_ref_roundtrip():
    aig, _, abc_var = make_chain()
    nref = fanout_counts(aig)
    before = list(nref)
    cone = deref_cone(aig, abc_var, set(aig.and_vars()), nref)
    assert nref != before
    ref_cone_back(aig, cone, nref)
    assert nref == before


def test_mffc_rejects_pi():
    aig = Aig()
    a = aig.add_pi()
    with pytest.raises(ValueError):
        mffc_nodes(aig, a >> 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property2_mffcs_are_laminar(seed):
    """Property 2: MFFCs never partially overlap."""
    aig = build_random_aig(seed, num_pis=6, num_ands=60)
    nref = fanout_counts(aig)
    mffcs = {var: mffc_nodes(aig, var, nref) for var in aig.and_vars()}
    variables = list(mffcs)
    for i, u in enumerate(variables):
        for v in variables[i + 1 :]:
            mu, mv = mffcs[u], mffcs[v]
            inter = mu & mv
            assert not inter or inter == mu or inter == mv, (
                f"MFFCs of {u} and {v} partially overlap: {inter}"
            )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mffc_membership_definition(seed):
    """Every MFFC member's paths to POs all pass through the root."""
    from repro.aig.traversal import po_fanout_mask

    from tests.graph_reference import fanout_lists

    aig = build_random_aig(seed, num_pis=6, num_ands=50)
    nref = fanout_counts(aig)
    fanouts = fanout_lists(aig)
    po_mask = po_fanout_mask(aig)
    for root in aig.and_vars():
        cone = mffc_nodes(aig, root, nref)
        for member in cone:
            if member == root:
                continue
            # All readers of a non-root member must be inside the cone,
            # and it must not drive a PO.
            assert not po_mask[member]
            assert all(reader in cone for reader in fanouts[member])
