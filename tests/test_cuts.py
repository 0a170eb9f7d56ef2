"""Unit tests for cut computation."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.aig.cuts import enumerate_cuts_with_tables, reconv_cut
from repro.aig.literals import make_lit
from repro.algorithms.common import AliasView
from repro.algorithms.seq_rewrite import (
    MAX_CUTS_PER_NODE,
    REWRITE_CUT_SIZE,
)
from repro.benchgen.arith import isqrt
from repro.commit import walk_cone
from repro.logic.truth import simulate_cone
from tests.conftest import build_random_aig
from tests.cut_reference import reference_cuts_with_tables
from tests.graph_reference import cone_nodes, fanout_lists


def test_reconv_cut_of_simple_node():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    aig.add_po(node)
    cut = reconv_cut(aig, node >> 1, 4)
    assert cut.leaves == {a >> 1, b >> 1}
    assert cut.cone == {node >> 1}


def test_reconv_cut_expands_reconvergence():
    # f = (a & b) & (a & c): expanding both fanins yields cut {a, b, c}.
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    left = aig.add_and(a, b)
    right = aig.add_and(a, c)
    top = aig.add_and(left, right)
    aig.add_po(top)
    cut = reconv_cut(aig, top >> 1, 3)
    assert cut.leaves == {a >> 1, b >> 1, c >> 1}
    assert cut.cone == {left >> 1, right >> 1, top >> 1}


def test_reconv_cut_respects_size_limit():
    aig = build_random_aig(5, num_ands=80)
    for limit in (2, 4, 8, 12):
        for root in list(aig.and_vars())[-10:]:
            cut = reconv_cut(aig, root, limit)
            assert len(cut.leaves) <= limit


def test_reconv_cut_is_a_valid_cut():
    aig = build_random_aig(9, num_ands=80)
    for root in list(aig.and_vars())[-15:]:
        cut = reconv_cut(aig, root, 8)
        # cone_nodes raises if some PI-to-root path avoids the leaves.
        cone = cone_nodes(aig, root, cut.leaves)
        assert cone == cut.cone


def test_reconv_cut_expandable_predicate_blocks():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    left = aig.add_and(a, b)
    top = aig.add_and(left, c)
    aig.add_po(top)
    cut = reconv_cut(
        aig, top >> 1, 8, expandable=lambda var, cone: False
    )
    assert cut.leaves == {left >> 1, c >> 1}
    assert cut.cone == {top >> 1}


def test_reconv_cut_rejects_tiny_limit():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    with pytest.raises(ValueError):
        reconv_cut(aig, node >> 1, 1)


#: sha256 of :func:`reconv_cut_digest`, captured before the cut walk
#: cached leaf fanins.  Any change to a leaf set, a cone or the charged
#: ``work`` of any cut (or to the collapse's expansion order) moves it.
RECONV_DIGEST = (
    "207c1aab6155774a18d04b2fa8a25adcc3dd1a401f9e52a933b9455bec207c3f"
)


def _aliased_view(seed: int) -> AliasView:
    """A random graph seen through live aliases, with killed nodes.

    Every alias points at a literal of a smaller variable, so the view
    stays acyclic; the aliased roots are killed the way a committed
    replacement kills them, plus a few extra nodes.
    """
    rng = random.Random(seed)
    aig = build_random_aig(seed, num_pis=10, num_ands=160, locality=24)
    view = AliasView(aig)
    ands = list(aig.and_vars())
    for var in rng.sample(ands, 16):
        view.set_alias(var, rng.randrange(2, 2 * var))
        aig.mark_dead(var)
    for var in rng.sample(ands, 6):
        if var not in view.alias:
            aig.mark_dead(var)
    return view


def reconv_cut_digest() -> str:
    """sha256 over every AND's cut on seeded plain and aliased graphs."""
    digest = hashlib.sha256()

    def record(cut, *extra) -> None:
        fields = (
            cut.root, sorted(cut.leaves), sorted(cut.cone), cut.work, *extra
        )
        digest.update(repr(fields).encode())

    for seed in (3, 17, 29):
        aig = build_random_aig(seed, num_pis=10, num_ands=160, locality=24)
        view = _aliased_view(seed)
        for limit in (4, 8, 12):
            for root in aig.and_vars():
                record(reconv_cut(aig, root, limit))
            for root in view.aig.and_vars():
                record(reconv_cut(view, root, limit))
        # Collapse mode: the fanout-free admission of ``rf`` plus the
        # expansion order seen by ``on_expand``.
        fanouts = fanout_lists(aig)
        drives_po = {lit >> 1 for lit in aig.pos}

        def expandable(var: int, cone: set[int]) -> bool:
            if var in drives_po:
                return False
            return all(reader in cone for reader in fanouts[var])

        for limit in (4, 8, 12):
            for root in aig.and_vars():
                order: list[int] = []
                cut = reconv_cut(
                    aig, root, limit,
                    expandable=expandable, on_expand=order.append,
                )
                record(cut, order)
    return digest.hexdigest()


def test_reconv_cut_digest_is_pinned():
    """Leaves, cones and charged work are those of the uncached walk."""
    assert reconv_cut_digest() == RECONV_DIGEST


def cuts_of(aig: Aig, k: int, max_cuts_per_node: int = 8):
    """The cut lists of :func:`enumerate_cuts_with_tables`, by variable."""
    cols = enumerate_cuts_with_tables(aig, k, max_cuts_per_node)
    return cut_lists(aig, cols)[0]


def test_enumerate_cuts_contains_trivial_cut():
    aig = build_random_aig(2, num_ands=40)
    cuts = cuts_of(aig, 4)
    for var in aig.and_vars():
        assert cuts[var][0] == (var,)


def test_enumerate_cuts_respects_k():
    aig = build_random_aig(2, num_ands=40)
    for k in (2, 3, 4):
        cuts = cuts_of(aig, k)
        for var in aig.and_vars():
            for cut in cuts[var]:
                assert len(cut) <= k


def test_enumerate_cuts_are_valid_cuts():
    aig = build_random_aig(4, num_ands=40)
    cuts = cuts_of(aig, 4)
    for var in list(aig.and_vars())[-10:]:
        for cut in cuts[var]:
            if cut == (var,):
                continue
            cone_nodes(aig, var, set(cut))  # raises when invalid


def test_enumerate_cuts_no_dominated_cut():
    aig = build_random_aig(6, num_ands=40)
    cuts = cuts_of(aig, 4)
    for var in aig.and_vars():
        non_trivial = [set(c) for c in cuts[var] if c != (var,)]
        for i, cut_a in enumerate(non_trivial):
            for j, cut_b in enumerate(non_trivial):
                if i != j:
                    assert not cut_a < cut_b, (var, cut_a, cut_b)


def test_enumerate_cuts_respects_budget():
    aig = build_random_aig(8, num_ands=60)
    cuts = cuts_of(aig, 4, max_cuts_per_node=3)
    for var in aig.and_vars():
        assert len(cuts[var]) <= 4  # trivial + 3


def test_enumerate_cuts_rejects_k1():
    aig = build_random_aig(1, num_ands=10)
    with pytest.raises(ValueError):
        cuts_of(aig, 1)


def cut_lists(aig: Aig, cols) -> tuple[dict, dict, dict]:
    """``(cuts, tables, cones)`` dicts of the columns, reference-shaped.

    Keyed like the dictionary reference: the constant, the PIs and the
    live ANDs (dead ANDs own a trivial cut in the columns but are not
    keys of the reference).
    """
    cuts: dict[int, list[tuple[int, ...]]] = {}
    tables: dict[int, list[int]] = {}
    cones: dict[int, list[frozenset[int]]] = {}
    offsets = cols.cone_offsets
    for var in [0, *aig.pis, *aig.and_vars()]:
        start = int(cols.first[var])
        rows = range(start, start + int(cols.count[var]))
        cuts[var] = [tuple(cols.cut(row)) for row in rows]
        tables[var] = [int(cols.table[row]) for row in rows]
        cones[var] = [
            frozenset(
                cols.cone_members[offsets[row] : offsets[row + 1]].tolist()
            )
            for row in rows
        ]
    return cuts, tables, cones


def _digest_graphs():
    """The pinned (graph, k) cases of the enumerator digest."""
    for num_pis in (3, 4, 8):
        for seed in (1, 2, 3):
            yield build_random_aig(
                seed, num_pis=num_pis, num_ands=150, locality=16
            ), 4
    # The two reconvergent examples of the hypothesis test below.
    yield build_random_aig(35, num_pis=3, num_ands=60, locality=8), 4
    yield build_random_aig(140, num_pis=3, num_ands=60, locality=8), 4
    yield isqrt(8), 4
    # Dead ANDs with live readers: the enumeration treats them as
    # leaves (trivial cut only).
    dead = build_random_aig(11, num_ands=120)
    for var in list(dead.and_vars())[::7]:
        dead.mark_dead(var)
    yield dead, 4
    for k in (2, 3):
        yield build_random_aig(5, num_pis=6, num_ands=120, locality=16), k


def enumerator_digest() -> str:
    """sha256 over every cut, table and cone of the pinned cases."""
    digest = hashlib.sha256()
    for aig, k in _digest_graphs():
        cuts, tables, cones = cut_lists(
            aig, enumerate_cuts_with_tables(aig, k, MAX_CUTS_PER_NODE)
        )
        for var in sorted(cuts):
            digest.update(repr((
                var, cuts[var], tables[var],
                [sorted(cone) for cone in cones[var]],
            )).encode())
    return digest.hexdigest()


#: sha256 of :func:`enumerator_digest`, captured from the per-node
#: dictionary enumerator (now ``tests/cut_reference.py``) before the
#: columnar rewrite.  Any change to a cut, its order, a table or a cone
#: moves it.
ENUMERATOR_DIGEST = (
    "40d843d951162978d863e0b693d892170db29bf55efcf4bd99f8afd63d56c68c"
)


def test_enumerate_cuts_with_tables_digest_is_pinned():
    """Cut lists, tables and cones are those of the dictionary DP."""
    assert enumerator_digest() == ENUMERATOR_DIGEST


def test_enumerate_cuts_with_tables_rejects_bad_k():
    aig = build_random_aig(1, num_ands=10)
    for k in (1, 5):
        with pytest.raises(ValueError):
            enumerate_cuts_with_tables(aig, k)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    num_pis=st.sampled_from([3, 4, 8]),
    size=st.integers(min_value=5, max_value=150),
    locality=st.sampled_from([4, 8, 16, 64]),
)
# Reconvergent merges (a union leaf inside a fanin cut's cone) are rare
# after dominance filtering; these graphs contain some.
@example(seed=35, num_pis=3, size=60, locality=8)
@example(seed=140, num_pis=3, size=60, locality=8)
def test_enumerate_cuts_with_tables_matches_cone_walks(
    seed, num_pis, size, locality
):
    """Columns equal the dictionary DP, per-cut simulation and walks."""
    aig = build_random_aig(
        seed, num_pis=num_pis, num_ands=size, locality=locality
    )
    cols = enumerate_cuts_with_tables(
        aig, REWRITE_CUT_SIZE, MAX_CUTS_PER_NODE
    )
    cuts, tables, cones = cut_lists(aig, cols)
    ref_cuts, ref_tables, ref_cones = reference_cuts_with_tables(
        aig, REWRITE_CUT_SIZE, MAX_CUTS_PER_NODE
    )
    assert cuts.keys() == ref_cuts.keys()
    for var in ref_cuts:
        assert cuts[var] == ref_cuts[var], var
        assert tables[var] == ref_tables[var], var
        assert cones[var] == ref_cones[var], var
    # Every row belongs to exactly one variable's list.
    assert int(cols.count.sum()) == cols.size.size
    view = AliasView(aig)
    for root in aig.and_vars():
        for cut, table, cone in zip(cuts[root], tables[root], cones[root]):
            leaves = sorted(cut)
            assert table == simulate_cone(aig, make_lit(root), leaves)
            try:
                walked, walked_table = walk_cone(view, root, leaves)
            except ValueError:
                continue  # blown-up cone: the walk refuses, sets differ
            assert cone == set(walked)
            assert table == walked_table
            for var, pair in walked.items():
                assert pair == aig.fanins(var)
