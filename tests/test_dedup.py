"""Unit tests for de-duplication and dangling-node removal (III-F)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.aig import Aig
from repro.aig.io_aiger import dump_aag
from repro.aig.validate import AigInvariantError, check_aig
from repro.algorithms.dedup import dedup_and_dangling
from repro.parallel.machine import ParallelMachine
from repro.verify import forced_gates, sanitizer
from repro.verify.sanitizer import Sanitizer
from tests.conftest import assert_equivalent
from tests.dedup_reference import reference_dedup


def test_removes_structural_duplicates():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    first = aig.add_and(a, b)
    dup = aig.add_raw_and(a, b)
    out1 = aig.add_and(first, c)
    out2 = aig.add_raw_and(dup, c)  # becomes duplicate after level 1
    aig.add_po(out1)
    aig.add_po(out2)
    reference = aig.clone()
    result = dedup_and_dangling(aig, {})
    assert result.num_ands == 2
    check_aig(result)
    assert_equivalent(reference, result)


def test_cascading_duplicates_need_level_order():
    """Figure 4: merging one pair creates a new duplicate pair above."""
    aig = Aig()
    a, b, c, d = (aig.add_pi() for _ in range(4))
    n2 = aig.add_and(a, b)
    n5 = aig.add_raw_and(a, b)
    n3 = aig.add_and(n2, c)
    n4 = aig.add_raw_and(n5, c)
    top1 = aig.add_and(n3, d)
    top2 = aig.add_raw_and(n4, d)
    aig.add_po(top1)
    aig.add_po(top2)
    reference = aig.clone()
    result = dedup_and_dangling(aig, {})
    assert result.num_ands == 3
    assert_equivalent(reference, result)


def test_removes_dangling_mffc():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    keep = aig.add_and(a, b)
    dead_inner = aig.add_and(b, c)
    aig.add_and(dead_inner, a)  # dangling root with an internal node
    aig.add_po(keep)
    reference = aig.clone()
    result = dedup_and_dangling(aig, {})
    assert result.num_ands == 1
    assert_equivalent(reference, result)


def test_resolves_aliases_before_hashing():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    old = aig.add_and(a, b)
    user1 = aig.add_and(old, c)
    replacement = aig.add_and(a ^ 1, b ^ 1)
    user2 = aig.add_raw_and(replacement ^ 1, c)
    aig.add_po(user1)
    aig.add_po(user2)
    # Alias old -> !replacement makes user1 and user2 duplicates.
    alias = {old >> 1: replacement ^ 1}
    result = dedup_and_dangling(aig, alias)
    # user1/user2 merge; old's cone dies.
    assert result.num_ands == 2
    assert result.pos[0] == result.pos[1]


def test_folds_trivial_nodes_created_by_merging():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    y = aig.add_raw_and(a, b)
    # AND(x, y) becomes AND(x, x) = x after dedup.
    top = aig.add_raw_and(x, y ^ 0)
    aig.add_po(top)
    reference = aig.clone()
    result = dedup_and_dangling(aig, {})
    assert result.num_ands == 1
    assert_equivalent(reference, result)


def test_machine_records_dedup_tag():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.add_and(a, b))
    machine = ParallelMachine()
    machine.set_tag("rf")
    dedup_and_dangling(aig, {}, machine)
    assert machine.tag == "rf"  # restored
    breakdown = machine.breakdown_by_tag()
    assert "dedup" in breakdown


def test_noop_on_clean_aig(seeded_aig):
    reference = seeded_aig.clone()
    compacted = seeded_aig.compact()
    result = dedup_and_dangling(seeded_aig, {})
    assert result.num_ands == compacted.num_ands
    assert_equivalent(reference, result)


def test_cyclic_alias_map_raises():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    x = aig.add_and(a, b)
    z = aig.add_and(a ^ 1, b)
    aig.add_po(aig.add_and(x, z ^ 1))
    with pytest.raises(ValueError, match="cycle in resolve map"):
        dedup_and_dangling(aig, {x >> 1: z, z >> 1: x})


def test_cross_level_hit_created_by_a_fold():
    """``n = x & q`` folds to ``x`` (alias ``q -> x``), so ``b = n & y``
    (level 2) takes the key of ``a = x & y`` (level 1) and merges into
    it: a per-level grouping alone would miss this duplicate."""
    aig = Aig()
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    q = aig.add_and(y, z)
    a = aig.add_and(x, y)
    n = aig.add_raw_and(x, q)
    b = aig.add_raw_and(n, y)
    aig.add_po(a)
    aig.add_po(b)
    alias = {q >> 1: x}
    result = dedup_and_dangling(aig, alias)
    assert alias[n >> 1] == x
    assert alias[b >> 1] == a
    assert result.num_ands == 1
    assert result.pos[0] == result.pos[1]


# ----------------------------------------------------------------------
# Differential oracle: column-native sweep vs the scalar reference
# ----------------------------------------------------------------------


@st.composite
def cleanup_cases(draw):
    """A raw graph (duplicates and foldable rows allowed), an acyclic
    alias map, dead nodes and POs.

    Backward aliases point below their variable; forward ones point to
    fresh replacement rows built over lower variables, like a cone
    replacement does.  Either way the resolved graph stays acyclic.
    """
    num_pis = draw(st.integers(1, 4))
    num_vars = 1 + num_pis
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        if rows and draw(st.booleans()):
            # A copy of an earlier row (fanins maybe swapped): a
            # duplicate, and its readers duplicates one level up.
            lit0, lit1 = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                lit0, lit1 = lit1, lit0
        else:
            lit0 = draw(st.integers(0, 2 * num_vars - 1))
            lit1 = draw(st.integers(0, 2 * num_vars - 1))
        rows.append((lit0, lit1))
        num_vars += 1
    originals = num_vars
    alias = []
    roots = draw(
        st.lists(
            st.integers(1 + num_pis, originals - 1), unique=True, max_size=6
        )
    )
    for var in roots:
        if draw(st.booleans()):
            alias.append((var, draw(st.integers(0, 2 * var - 1))))
            continue
        group = num_vars
        for _ in range(draw(st.integers(1, 3))):
            lits = st.integers(0, 2 * var - 1)
            if num_vars > group:
                lits |= st.integers(2 * group, 2 * num_vars - 1)
            rows.append((draw(lits), draw(lits)))
            num_vars += 1
        alias.append((var, 2 * (num_vars - 1) + draw(st.integers(0, 1))))
    # Replaced roots die with their cone; rarely, so does a live node
    # (the in-pass audits must then fire identically).
    dead = set()
    if alias:
        dead.update(draw(st.lists(st.sampled_from([v for v, _ in alias]))))
    if draw(st.integers(0, 9)) == 0:
        dead.add(draw(st.integers(1 + num_pis, num_vars - 1)))
    dead = sorted(dead)
    pos = draw(
        st.lists(st.integers(0, 2 * num_vars - 1), min_size=1, max_size=4)
    )
    if draw(st.booleans()):
        # Drive every reader-less row, so most of the graph is live.
        read = {lit >> 1 for row in rows for lit in row}
        pos += [2 * var for var in range(1 + num_pis, num_vars)
                if var not in read]
    return {
        "pis": num_pis, "rows": rows, "alias": alias, "dead": dead,
        "pos": pos,
    }


def _build_case(case) -> Aig:
    aig = Aig("case")
    for _ in range(case["pis"]):
        aig.add_pi()
    for lit0, lit1 in case["rows"]:
        aig.add_raw_and(lit0, lit1)
    for var in case["dead"]:
        aig.mark_dead(var)
    for lit in case["pos"]:
        aig.add_po(lit)
    return aig


def _cleanup_outcome(run, case, sanitize: bool, gates):
    """Everything a cleanup run leaves behind, for exact comparison."""
    aig = _build_case(case)
    alias = dict(case["alias"])
    machine = ParallelMachine()
    san = Sanitizer(on_conflict="record") if sanitize else None
    sanitizer.set_sanitizer(san)
    observe.enable()
    try:
        with forced_gates(gates):
            result = dump_aag(run(aig, alias, machine))
    except AigInvariantError as exc:  # an in-pass audit fired
        result = repr(exc)
    finally:
        _, registry = observe.disable()
        sanitizer.set_sanitizer(None)
    # Table batching and strash growth are wall-clock details: the
    # eviction rounds of one batch and of per-level batches differ, and
    # so do the gate sides (``path.*``) those batch sizes take.
    ignored = ("strash.", "sanitizer.vec_eviction_rounds", "path.")
    counters = {
        name: value
        for name, value in registry.counters.items()
        if not name.startswith(ignored)
    }
    summary = None
    if san is not None:
        summary = san.summary()
        summary.pop("vec_eviction_rounds", None)
    return {
        "result": result,
        "alias": list(alias.items()),
        "dead": aig.arrays()[2].tolist(),
        "records": machine.records,
        "counters": counters,
        "sanitizer": summary,
    }


#: pis x=1 y=2 z=3; q=4 (aliased to x); a=5 = x & y; n=6 = x & q folds
#: to x; b=7 = n & y takes a's key one level up.
CROSS_LEVEL = {
    "pis": 3, "rows": [(4, 6), (2, 4), (2, 8), (12, 4)],
    "alias": [(4, 2)], "dead": [], "pos": [10, 14],
}


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("gates", [None, 0])
@settings(max_examples=60, deadline=None)
@given(case=cleanup_cases())
# Alias chain 6 -> 5 -> !4, and a forward alias 7 -> 8 onto a fresh row.
@example(case={
    "pis": 2, "rows": [(2, 4), (3, 4), (6, 8), (2, 5), (6, 4), (2, 6)],
    "alias": [(6, 10), (5, 9), (7, 16)], "dead": [], "pos": [14, 12, 13],
})
# Fold to constant through an alias (3 -> y makes 4 = y & !y), and a
# direct x & !x row.
@example(case={
    "pis": 2, "rows": [(2, 4), (6, 5), (2, 3), (8, 10)],
    "alias": [(3, 4)], "dead": [], "pos": [12, 11, 6],
})
@example(case=CROSS_LEVEL)
# A dangling MFFC (7 over 6 over 5) next to a live PO cone.
@example(case={
    "pis": 3, "rows": [(2, 4), (4, 6), (8, 10), (12, 2)],
    "alias": [], "dead": [], "pos": [8],
})
# Aliased PO drivers, one of them complemented, plus a killed root.
@example(case={
    "pis": 3, "rows": [(2, 4), (4, 6), (2, 4), (8, 10)],
    "alias": [(6, 8), (7, 11)], "dead": [6], "pos": [13, 14, 9],
})
def test_dedup_matches_scalar_reference(case, sanitize, gates):
    assert _cleanup_outcome(
        dedup_and_dangling, case, sanitize, gates
    ) == _cleanup_outcome(reference_dedup, case, sanitize, gates)
