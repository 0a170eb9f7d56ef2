"""Unit tests for the AIG data structure."""

import pytest

from repro.aig.aig import Aig
from repro.aig.literals import CONST0, CONST1
from repro.aig.validate import check_aig
from tests.conftest import assert_equivalent, build_random_aig


def make_chain():
    aig = Aig("chain")
    a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
    ab = aig.add_and(a, b)
    abc = aig.add_and(ab, c)
    aig.add_po(abc, "f")
    return aig, (a, b, c, ab, abc)


def test_empty_aig_has_constant_only():
    aig = Aig()
    assert aig.num_vars == 1
    assert aig.num_ands == 0
    assert aig.is_const(0)


def test_add_pi_and_po():
    aig = Aig()
    a = aig.add_pi("x")
    assert aig.is_pi(a >> 1)
    assert aig.num_pis == 1
    index = aig.add_po(a, "y")
    assert index == 0
    assert aig.pos == [a]
    assert aig.pi_name(0) == "x"
    assert aig.po_name(0) == "y"


def test_and_constant_folding():
    aig = Aig()
    a = aig.add_pi()
    assert aig.add_and(a, CONST0) == CONST0
    assert aig.add_and(a, CONST1) == a
    assert aig.add_and(a, a) == a
    assert aig.add_and(a, a ^ 1) == CONST0
    assert aig.num_ands == 0


def test_structural_hashing_reuses_nodes():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    first = aig.add_and(a, b)
    second = aig.add_and(b, a)  # commuted
    assert first == second
    assert aig.num_ands == 1


def test_fanins_are_canonically_ordered():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(b ^ 1, a)
    f0, f1 = aig.fanins(node >> 1)
    assert f0 <= f1


def test_fanins_raises_for_pi():
    aig = Aig()
    a = aig.add_pi()
    with pytest.raises(ValueError):
        aig.fanin0(a >> 1)


ACCESSORS = ("is_pi", "is_and", "is_dead", "fanin0", "fanin1", "fanins")


@pytest.mark.parametrize("accessor", ACCESSORS)
def test_accessors_reject_out_of_range_ids(accessor):
    # Negative ids must not wrap around to the end of the columns.
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.add_and(a, b))
    for var in (-1, -aig.num_vars, aig.num_vars, aig.num_vars + 5):
        with pytest.raises(IndexError):
            getattr(aig, accessor)(var)


def test_accessors_read_every_valid_id():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    assert [aig.is_pi(var) for var in range(4)] == [
        False, True, True, False
    ]
    assert [aig.is_and(var) for var in range(4)] == [
        False, False, False, True
    ]
    assert not any(aig.is_dead(var) for var in range(4))
    assert aig.fanins(node >> 1) == (a, b)
    assert (aig.fanin0(node >> 1), aig.fanin1(node >> 1)) == (a, b)
    for var in range(3):
        with pytest.raises(ValueError):
            aig.fanins(var)
        with pytest.raises(ValueError):
            aig.fanin1(var)


def test_add_raw_and_bypasses_strash():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    first = aig.add_and(a, b)
    raw = aig.add_raw_and(a, b)
    assert raw != first
    assert aig.num_ands == 2


def test_find_and():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    assert aig.find_and(b, a) == node
    assert aig.find_and(a, b ^ 1) is None


def test_mark_dead_and_revive():
    aig, (a, b, c, ab, abc) = make_chain()
    var = ab >> 1
    aig.mark_dead(var)
    assert aig.is_dead(var)
    assert aig.num_ands == 1
    # Strash slot released: an equivalent node can be recreated.
    fresh = aig.add_and(a, b)
    assert fresh != ab
    aig.mark_dead(fresh >> 1)
    aig.revive(var)
    assert not aig.is_dead(var)
    assert aig.find_and(a, b) == ab


def test_mark_dead_rejects_pi():
    aig = Aig()
    a = aig.add_pi()
    with pytest.raises(ValueError):
        aig.mark_dead(a >> 1)


def test_truncate_removes_speculative_nodes():
    aig, (a, b, c, ab, abc) = make_chain()
    snapshot = aig.num_vars
    spec = aig.add_and(a, c)
    assert aig.num_vars == snapshot + 1
    aig.truncate(snapshot)
    assert aig.num_vars == snapshot
    # The strash entry is gone; recreating yields a fresh node.
    again = aig.add_and(a, c)
    assert again >> 1 == snapshot


def test_truncate_rejects_pi_range():
    aig, _ = make_chain()
    with pytest.raises(ValueError):
        aig.truncate(1)


def test_compact_drops_unreachable():
    aig, (a, b, c, ab, abc) = make_chain()
    aig.add_and(a, c)  # dangling
    compacted = aig.compact()
    assert compacted.num_ands == 2
    # The dangling node was the last one built, so the reachable nodes
    # keep their ids and fanins and only its row is gone.
    assert compacted.num_vars == aig.num_vars - 1
    assert compacted.pos == [abc]
    assert compacted.fanins(abc >> 1) == aig.fanins(abc >> 1)
    assert compacted.fanins(ab >> 1) == aig.fanins(ab >> 1)
    check_aig(compacted)
    assert_equivalent(aig, compacted)


def test_compact_resolves_aliases():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    old = aig.add_and(a, b)
    aig.add_po(old)
    replacement = aig.add_and(a ^ 1, b ^ 1)
    compacted = aig.compact(resolve={old >> 1: replacement ^ 1})
    # f = !(!a & !b) = a | b now.
    from repro.cec.simulate import evaluate

    assert evaluate(compacted, [False, False]) == [False]
    assert evaluate(compacted, [True, False]) == [True]
    assert evaluate(compacted, [False, True]) == [True]


def test_compact_detects_alias_cycle():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(n1, c)
    aig.add_po(n2)
    with pytest.raises(ValueError):
        aig.compact(resolve={n1 >> 1: n2, n2 >> 1: n1})


@pytest.mark.parametrize("target", [10, 11, 40, -2, -3])
def test_compact_rejects_out_of_range_resolve_target(target):
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    aig.add_po(aig.add_and(node, a ^ 1))
    with pytest.raises(IndexError):
        aig.compact(resolve={node >> 1: target})


def test_compact_detects_alias_cycle_through_a_fanin():
    # n1 redirects into its own fanout n2: the rebuild would recurse
    # n2 -> n1 -> n2 forever.
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(n1, c)
    aig.add_po(n2)
    with pytest.raises(ValueError, match="cycle"):
        aig.compact(resolve={n1 >> 1: n2 ^ 1})


def test_compact_on_deep_chain_does_not_recurse():
    aig = Aig("deep")
    lit = aig.add_pi()
    other = aig.add_pi()
    for _ in range(5000):
        lit = aig.add_and(lit, other) ^ 1
        other = lit ^ 1
    aig.add_po(lit)
    compacted = aig.compact()
    check_aig(compacted)


def test_clone_is_independent():
    aig, (a, b, c, ab, abc) = make_chain()
    copy = aig.clone()
    copy.add_and(a, c)
    assert aig.num_vars != copy.num_vars
    assert_equivalent(aig, copy.compact())


def test_stats_reports_depth():
    aig, _ = make_chain()
    stats = aig.stats()
    assert stats == {"pis": 3, "pos": 1, "ands": 2, "levels": 2}


def test_po_redirect():
    aig, (a, b, c, ab, abc) = make_chain()
    aig.set_po(0, ab ^ 1)
    assert aig.pos == [ab ^ 1]


def test_check_lit_rejects_unknown_variable():
    aig = Aig()
    with pytest.raises(ValueError):
        aig.add_po(99)


def test_random_aig_is_well_formed():
    for seed in range(5):
        check_aig(build_random_aig(seed))
