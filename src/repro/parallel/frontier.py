"""Frontier arrays and batched compaction primitives.

The collapse stages of parallel refactoring and balancing maintain a
*frontier*: the roots of the cones/subtrees to process at the next
level.  After each batch, the cut-node lists produced by all threads
are gathered, duplicates and PIs filtered out, and the result becomes
the next frontier (paper, Section III-B).  On the GPU this is a
gather + sort/unique compaction; here the same operations are provided
with work counts for the cost model.

The gather compaction runs as one NumPy unique call at every batch
size; ``tests/test_frontier.py`` keeps the plain set loop as the
reference it is compared against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro import observe


def gather_unique(
    candidates: Iterable[int],
    keep: Callable[[int], bool] | None = None,
) -> tuple[list[int], int]:
    """Deduplicate ``candidates`` preserving first-seen order.

    ``keep`` optionally filters items (e.g. dropping PIs and constants).
    Returns ``(unique_items, work_units)`` where the work models one
    hash insertion per candidate.
    """
    items = candidates if isinstance(candidates, list) else list(candidates)
    uniq, first = np.unique(
        np.asarray(items, dtype=np.int64), return_index=True
    )
    # np.unique sorts by value; reordering by first occurrence
    # restores first-seen order.
    ordered = uniq[np.argsort(first, kind="stable")].tolist()
    if keep is not None:
        ordered = [item for item in ordered if keep(item)]
    if observe.enabled:
        observe.count("frontier.gathered", len(items))
        observe.count("frontier.unique", len(ordered))
    return ordered, len(items)

