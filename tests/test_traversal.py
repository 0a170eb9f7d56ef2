"""Unit tests for traversal, levels and fanout computation."""

import random

import pytest

from repro import observe
from repro.aig import traversal
from repro.aig.aig import Aig
from repro.aig.literals import lit_var
from repro.aig.traversal import (
    aig_depth,
    aig_levels,
    fanout_counts,
    po_fanout_mask,
)
from tests.conftest import build_random_aig
from tests.graph_reference import cone_nodes, fanout_lists, transitive_fanin


@pytest.fixture
def diamond():
    # f = (a & b) & (a & c): node 'a' fans out twice.
    aig = Aig("diamond")
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    left = aig.add_and(a, b)
    right = aig.add_and(a, c)
    top = aig.add_and(left, right)
    aig.add_po(top)
    return aig, (a, b, c, left, right, top)


def test_levels_basic(diamond):
    aig, (a, b, c, left, right, top) = diamond
    levels = aig_levels(aig)
    assert levels[a >> 1] == 0
    assert levels[left >> 1] == 1
    assert levels[top >> 1] == 2
    assert aig_depth(aig) == 2


def test_depth_of_pi_only_aig():
    aig = Aig()
    a = aig.add_pi()
    aig.add_po(a)
    assert aig_depth(aig) == 0


def test_fanout_counts(diamond):
    aig, (a, b, c, left, right, top) = diamond
    counts = fanout_counts(aig)
    assert counts[a >> 1] == 2
    assert counts[b >> 1] == 1
    assert counts[left >> 1] == 1
    assert counts[top >> 1] == 1  # the PO reference


def test_double_edge_counts_twice():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    y = aig.add_and(x, x ^ 1)  # folded to const — build raw instead
    assert y == 0
    raw = aig.add_raw_and(x, x ^ 1)
    counts = fanout_counts(aig)
    assert counts[x >> 1] == 2


def test_fanout_lists(diamond):
    aig, (a, b, c, left, right, top) = diamond
    lists = fanout_lists(aig)
    assert sorted(lists[a >> 1]) == sorted([left >> 1, right >> 1])
    assert lists[left >> 1] == [top >> 1]
    assert lists[top >> 1] == []


def test_po_fanout_mask(diamond):
    aig, (a, b, c, left, right, top) = diamond
    mask = po_fanout_mask(aig)
    assert mask[top >> 1]
    assert not mask[left >> 1]


def test_transitive_fanin(diamond):
    aig, (a, b, c, left, right, top) = diamond
    tfi = transitive_fanin(aig, [top >> 1])
    assert {a >> 1, b >> 1, c >> 1, left >> 1, right >> 1, top >> 1} <= tfi


def test_cone_nodes(diamond):
    aig, (a, b, c, left, right, top) = diamond
    cone = cone_nodes(
        aig, top >> 1, {left >> 1, right >> 1}
    )
    assert cone == {top >> 1}
    full = cone_nodes(aig, top >> 1, {a >> 1, b >> 1, c >> 1})
    assert full == {left >> 1, right >> 1, top >> 1}


def test_cone_nodes_rejects_uncovered_pi(diamond):
    aig, (a, b, c, left, right, top) = diamond
    with pytest.raises(ValueError):
        cone_nodes(aig, top >> 1, {left >> 1})  # path via right escapes


def test_levels_monotone_on_random_aig():
    aig = build_random_aig(3)
    levels = aig_levels(aig)
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        assert levels[var] == 1 + max(
            levels[lit_var(f0)], levels[lit_var(f1)]
        )


# ----------------------------------------------------------------------
# Array levels / fanout counts against linear-scan references
# ----------------------------------------------------------------------


def _reference_levels(aig):
    """One scan in id order: level = 1 + max fanin level, 0 if not AND."""
    levels = [0] * aig.num_vars
    for var in range(aig.num_vars):
        if aig.is_and(var) and not aig.is_dead(var):
            f0, f1 = aig.fanins(var)
            levels[var] = 1 + max(
                levels[lit_var(f0)], levels[lit_var(f1)]
            )
    return levels


def _reference_fanout_counts(aig):
    counts = [0] * aig.num_vars
    for var in range(aig.num_vars):
        if aig.is_and(var) and not aig.is_dead(var):
            f0, f1 = aig.fanins(var)
            counts[lit_var(f0)] += 1
            counts[lit_var(f1)] += 1
    for lit in aig.pos:
        counts[lit_var(lit)] += 1
    return counts


def _random_deep_aig(seed, depth, width):
    """A spine of ``depth`` ANDs with random side logic and dead rows."""
    rng = random.Random(seed)
    aig = Aig(f"deep{seed}")
    lits = [aig.add_pi() for _ in range(4)]
    spine = lits[0]
    spine_vars = set()
    for _ in range(depth):
        spine = aig.add_raw_and(spine, rng.choice(lits) ^ 1)
        spine_vars.add(spine >> 1)
        lits.append(spine)
        for _ in range(rng.randrange(width + 1)):
            lits.append(
                aig.add_raw_and(rng.choice(lits), rng.choice(lits) ^ 1)
            )
    aig.add_po(spine)
    aig.add_po(rng.choice(lits) ^ 1)
    aig.add_po(1)
    side = [var for var in aig.and_vars() if var not in spine_vars]
    for var in rng.sample(side, len(side) // 10):
        aig.mark_dead(var)
    return aig


def _wide_then_deep_aig(seed, width, depth):
    """A balanced tree over ``width`` PIs under a ``depth``-AND spine.

    The tree's waves settle a large share of the waiting nodes; the
    spine's settle one node each, so the level rule switches to the
    scan in the middle.  A tenth of the tree is marked dead while the
    tree above still reads it (dead fanins).
    """
    rng = random.Random(seed)
    aig = Aig(f"wide{seed}")
    layer = [aig.add_pi() for _ in range(width)]
    tree = []
    while len(layer) > 1:
        layer = [
            aig.add_raw_and(layer[i], layer[i + 1] ^ rng.randrange(2))
            for i in range(0, len(layer) - 1, 2)
        ]
        tree.extend(layer)
    spine = layer[0]
    for _ in range(depth):
        spine = aig.add_raw_and(spine, rng.choice(tree) ^ 1)
    aig.add_po(spine)
    for lit in rng.sample(tree[:-1], len(tree) // 10):
        aig.mark_dead(lit >> 1)
    return aig


def _level_rule(aig):
    """The wave whose yield sends ``aig_levels`` to the scan, or None.

    Wave ``k`` settles exactly the live ANDs at level ``k``; the rule
    switches after the first wave that settles fewer than
    1/_WAVE_YIELD of the ANDs still waiting.  ``None`` means every
    level is answered by a wave.
    """
    levels = _reference_levels(aig)
    live = [
        levels[var]
        for var in range(aig.num_vars)
        if aig.is_and(var) and not aig.is_dead(var)
    ]
    for k in range(1, max(live, default=0) + 1):
        waiting = sum(level >= k for level in live)
        settled = sum(level == k for level in live)
        if settled * traversal._WAVE_YIELD < waiting:
            return k
    return None


def _levels_path(aig):
    """``aig_levels`` under observe, and the ``path.aig_levels.*`` it
    counted."""
    observe.enable()
    try:
        levels = aig_levels(aig)
    finally:
        _, registry = observe.disable()
    counters = registry.snapshot()["counters"]
    paths = {
        key.removeprefix("path.aig_levels.")
        for key in counters
        if key.startswith("path.aig_levels.")
    }
    return levels, paths


@pytest.mark.parametrize(
    "seed,depth,width", [(1, 0, 0), (2, 3, 2), (3, 40, 6), (4, 300, 1)]
)
def test_levels_and_fanouts_match_linear_scan(seed, depth, width):
    aig = _random_deep_aig(seed, depth, width)
    levels, paths = _levels_path(aig)
    assert levels == _reference_levels(aig)
    if aig.num_ands:
        switch = _level_rule(aig)
        assert paths == ({"waves"} if switch is None else {"scan"})
    else:
        assert paths == set()
    assert fanout_counts(aig) == _reference_fanout_counts(aig)


@pytest.mark.parametrize(
    "shape,switch",
    [("waves", None), ("first", 1), ("middle", "middle")],
)
def test_level_waves_switch_to_scan_on_low_yield(shape, switch):
    """Wide graphs stay on waves, deep ones scan after the first wave,
    and a wide graph under a deep spine switches in the middle; the
    scan keeps the levels the waves fixed."""
    if shape == "waves":
        aig = _wide_then_deep_aig(5, 256, 0)
    elif shape == "first":
        aig = _random_deep_aig(6, 400, 1)
    else:
        aig = _wide_then_deep_aig(7, 256, 300)
    expected = _level_rule(aig)
    if switch == "middle":
        assert expected is not None and expected > 1
    else:
        assert expected == switch
    levels, paths = _levels_path(aig)
    assert paths == ({"waves"} if switch is None else {"scan"})
    assert levels == _reference_levels(aig)
    assert any(aig.is_dead(var) for var in range(aig.num_vars))
