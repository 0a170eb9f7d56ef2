"""Unit tests for frontier/compaction primitives."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel.frontier import gather_unique


def test_gather_unique_preserves_order():
    items, work = gather_unique([3, 1, 3, 2, 1, 5])
    assert items == [3, 1, 2, 5]
    assert work == 6


def test_gather_unique_filters():
    items, _ = gather_unique([4, 5, 6, 7], keep=lambda x: x % 2 == 0)
    assert items == [4, 6]


def test_gather_unique_filter_applies_once():
    seen = []

    def keep(item):
        seen.append(item)
        return True

    gather_unique([1, 1, 1, 2], keep=keep)
    assert seen == [1, 2]


# ----------------------------------------------------------------------
# NumPy compactions against plain set/dict references
# ----------------------------------------------------------------------


def _reference_gather_unique(items, keep=None):
    seen = set()
    out = []
    for item in items:
        if item in seen:
            continue
        seen.add(item)
        if keep is None or keep(item):
            out.append(item)
    return out, len(items)


item_lists = st.one_of(
    st.lists(st.integers(min_value=0, max_value=60), max_size=200),
    st.lists(st.integers(min_value=0, max_value=10**9), max_size=5),
    st.integers(min_value=0, max_value=50).flatmap(
        lambda item: st.lists(st.just(item), min_size=1, max_size=30)
    ),
)


@settings(max_examples=150, deadline=None)
@given(items=item_lists, modulus=st.integers(min_value=1, max_value=7))
@example(items=[], modulus=1)
@example(items=[9], modulus=3)
@example(items=[4, 4, 4, 4], modulus=2)
def test_compactions_match_set_and_dict_references(items, modulus):
    unique = gather_unique(items)
    assert unique == _reference_gather_unique(items)
    assert all(type(item) is int for item in unique[0])
    assert gather_unique(iter(items)) == _reference_gather_unique(items)

    def keep(item):
        return item % modulus != 0

    assert gather_unique(items, keep=keep) == _reference_gather_unique(
        items, keep
    )

