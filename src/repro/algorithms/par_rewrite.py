"""GPU-parallel rewriting in the style of NovelRewrite [9].

This pass reproduces the algorithm the paper *builds on* (and measures
against in Table I): the best replacement candidate of every node is
found in parallel on the static AIG — cut enumeration, NPN matching and
gain estimation as kernels — and candidate cones are inserted through
the parallel hash table; but the keep/delete *replacement* decision
runs **sequentially** on the host, which [9] accepts because rewriting
cones are small, and which becomes the bottleneck when cones grow
(Section III's motivation for the refactoring framework).

Kernel/host attribution:

* ``rw.match`` (kernel) — per-node cut evaluation and library matching;
* ``rw.insert`` (kernel) — batched construction of the winning cones;
* ``rw.replace_seq`` (host) — the topological-order dereference /
  re-evaluate / commit loop, the measured "sequential part" of Table I.
  It runs as the commit layer's one fused replay loop,
  :func:`~repro.commit.replay_rewrites`; this module only hands it the
  candidates, the resolved reference counts and the library matcher
  (:func:`~repro.algorithms.rewrite_lib.match_program`).

The committed result is identical to
:func:`repro.algorithms.seq_rewrite.seq_rewrite` run with the same
candidates, matching [9]'s same-or-better-than-ABC quality claim.  The
standard de-duplication and dangling cleanup (Section III-F) runs
afterwards.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.aig.aig import Aig, resolve_aliases
from repro.aig.cuts import enumerate_cuts_with_tables
from repro.algorithms import kernels
from repro.algorithms.common import PassResult, resolved_fanout_counts
from repro.algorithms.dedup import dedup_and_dangling
from repro.algorithms.rewrite_lib import match_function, match_program
from repro.algorithms.seq_rewrite import (
    CUT_EVAL_WORK,
    MAX_CUTS_PER_NODE,
    REWRITE_CUT_SIZE,
)
from repro.commit import replay_rewrites
from repro.engine.context import clone_with_context, context_for
from repro.parallel.machine import ParallelMachine
from repro.verify import sanitizer


def par_rewrite(
    aig: Aig,
    zero_gain: bool = False,
    machine: ParallelMachine | None = None,
) -> PassResult:
    """One pass of parallel rewriting; returns the compacted result."""
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    working = clone_with_context(aig)
    min_gain = 0 if zero_gain else 1

    with observe.span("rw.match", "stage"):
        candidates = _match_stage(working, machine, min_gain)
    observe.count("rw.candidates", len(candidates))
    with observe.span("rw.replace", "stage"):
        replaced, insert_works, host_work = _replace_stage(
            working, candidates, machine, min_gain
        )
        machine.launch("rw.insert", insert_works or [0])
        machine.host("rw.replace_seq", host_work)
    observe.count("rw.replaced", len(replaced))

    result = dedup_and_dangling(working, replaced, machine)
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={
            "candidates": len(candidates),
            "replaced": len(replaced),
        },
    )


def _match_stage(
    aig: Aig, machine: ParallelMachine, min_gain: int
) -> dict[int, tuple]:
    """Kernel: best rewriting candidate per node on the static graph.

    Returns ``{root: (leaves, transform, template, est_gain)}`` for the
    nodes whose best candidate meets the gain threshold.  Every
    (root, cut) item is independent on the *static* graph: the cut
    enumeration returns columns with composed truth tables and CSR
    cones (:func:`~repro.aig.cuts.enumerate_cuts_with_tables`), and the
    items a root tries are filtered in one vector test.  Work is
    charged one unit per node plus ``CUT_EVAL_WORK`` per non-trivial
    cut, through one ``rw.match`` kernel record.

    Per root the scan visits its cuts in list order, sizes an
    item's MFFC only when its gain bound (cone size minus template
    ANDs: the MFFC is a subset of the cone) reaches ``min_gain`` and
    strictly beats the incumbent, and keeps strict improvements; the
    sizing runs batched across roots (:func:`_select_batched`).
    """
    cols = enumerate_cuts_with_tables(
        aig, REWRITE_CUT_SIZE, MAX_CUTS_PER_NODE
    )
    live = aig.live_and_array()
    machine.launch("rw.cut_enum", cols.count[live].tolist())
    sizes = cols.size
    nontrivial = sizes >= 2
    evaluated = np.bincount(cols.root[nontrivial], minlength=aig.num_vars)
    works = (1 + CUT_EVAL_WORK * evaluated[live]).tolist()

    # Candidate items in scan order: roots ascending, each root's cuts
    # in list order (its rows are contiguous).  Blown-up cones (over
    # 64 nodes) are rejected.
    cone_len = np.diff(cols.cone_offsets)
    rows = np.flatnonzero(nontrivial & (cone_len <= 64))
    rows = rows[np.argsort(cols.root[rows], kind="stable")]
    # One library match per distinct (function, width), in first-seen
    # order, exactly like a per-call memo filled by the scan.
    match_keys = cols.table[rows] * 8 + sizes[rows]
    distinct, first_seen, which = np.unique(
        match_keys, return_index=True, return_inverse=True
    )
    matches: list = [None] * distinct.size
    template_ands = np.empty(distinct.size, dtype=np.int64)
    for slot in np.argsort(first_seen).tolist():
        row = int(rows[first_seen[slot]])
        transform, template = match_function(
            int(cols.table[row]), cols.cut(row)
        )
        matches[slot] = (transform, template)
        template_ands[slot] = template.num_ands
    item_ands = template_ands[which]
    bound = cone_len[rows] - item_ands
    eligible = bound >= min_gain
    rows = rows[eligible]
    items = (rows, which[eligible], item_ands[eligible], bound[eligible])

    winners = _select_batched(aig, cols, items)
    candidates: dict[int, tuple] = {}
    for root, row, slot, gain in winners:
        if gain >= min_gain:
            transform, template = matches[slot]
            candidates[root] = (cols.cut(row), transform, template, gain)
    machine.launch("rw.match", works)
    return candidates


def _select_batched(aig: Aig, cols, items) -> list[tuple]:
    """Column-native winner selection over the eligible items.

    One batched decrement-fixpoint sweep per wave
    (:func:`~repro.algorithms.kernels.rewrite_batched_mffc`): wave
    ``w`` sizes every root's ``w``-th eligible item at once, unless its
    bound cannot beat the best settled by wave ``w - 1`` — exactly the
    per-root scan's control flow, batched across roots.  Returns
    ``(root, row, match slot, est_gain)`` per root that sized an item,
    roots ascending.
    """
    rows, which, item_ands, bound = items
    nref = context_for(aig).fanout_counts_array()  # read-only here
    roots = cols.root[rows]
    num_items = rows.size
    if not num_items:
        return []
    position = np.arange(num_items)
    starts = np.ones(num_items, dtype=bool)
    starts[1:] = roots[1:] != roots[:-1]
    root_slot = np.cumsum(starts) - 1
    wave_of = position - np.maximum.accumulate(np.where(starts, position, 0))
    # A root without an incumbent has gain "minus infinity": every
    # bound beats it, and so does every sized gain.
    best_gain = np.full(
        int(root_slot[-1]) + 1, np.iinfo(np.int64).min, dtype=np.int64
    )
    best_item = np.full(best_gain.size, -1, dtype=np.int64)
    by_wave = np.argsort(wave_of, kind="stable")
    bounds = np.searchsorted(
        wave_of[by_wave], np.arange(int(wave_of.max()) + 2)
    )
    for wave in range(bounds.size - 1):
        batch = by_wave[bounds[wave] : bounds[wave + 1]]
        batch = batch[bound[batch] > best_gain[root_slot[batch]]]
        if not batch.size:
            continue
        if observe.enabled:
            observe.count("kernels.rw_waves")
            observe.count("kernels.rw_sized_items", int(batch.size))
        members, counts = cols.cones(rows[batch])
        gains = kernels.rewrite_batched_mffc(
            aig, nref, roots[batch], members, counts
        ) - item_ands[batch]
        slots = root_slot[batch]
        better = gains > best_gain[slots]
        best_gain[slots[better]] = gains[better]
        best_item[slots[better]] = batch[better]
    # Wave 0 sizes every root's first item, so every root has a winner.
    return list(zip(roots[best_item].tolist(), rows[best_item].tolist(),
                    which[best_item].tolist(), best_gain.tolist()))


def _replace_stage(
    aig: Aig,
    candidates: dict[int, tuple],
    machine: ParallelMachine,
    min_gain: int,
) -> tuple[dict[int, int], list[int], int]:
    """Sequential keep/delete evaluation over the candidate pairs.

    Walks the candidates in topological order, re-evaluating each on
    the current (partially rewritten) graph and committing exactly like
    the sequential pass.  Returns (alias map, per-commit insertion
    works, host work units).

    The replay is the commit layer's one fused loop
    (:func:`~repro.commit.replay_rewrites`); this stage hands it the
    resolved reference counts, the library matcher and the sanitizer
    batch, and charges the node scan.
    """
    nref = resolved_fanout_counts(
        aig, resolve_aliases({}, aig.num_vars)
    ).tolist()
    # The sequential pass walks the whole node array in topological
    # order to find the inserted cone pairs — one unit per node scanned
    # ([9]'s replacement loop), plus the per-pair evaluation.
    scanned = aig.num_ands
    # Committed MFFCs must never overlap: a cone reaching a node an
    # earlier commit deleted means the bookkeeping (alias resolution,
    # staleness filters) let two replacements race on the same logic.
    guard = sanitizer.batch("rw.replace")
    alias, insert_works, host_work = replay_rewrites(
        aig, candidates, nref, min_gain, match_program, guard
    )
    return alias, insert_works, scanned + host_work
