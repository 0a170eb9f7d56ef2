"""Cut computation for AIG nodes.

Two kinds of cuts are needed by the resynthesis passes:

* :func:`reconv_cut` — a single large reconvergence-driven cut per node,
  grown best-first so that each expansion increases the cut size as
  little as possible.  This is the cut refactoring resynthesizes
  (paper, Section II-B/III-B); with an ``expandable`` predicate it also
  implements the fanout-free traversal of the parallel collapse stage.
* :func:`enumerate_cuts_with_tables` — bottom-up k-feasible cut
  enumeration with a per-node priority limit, as used by rewriting:
  every node's cut list, computed level by level on NumPy columns
  (:class:`CutColumns`) with each cut's truth table and cone.  Both
  rewriting passes read their cut lists from it; the per-node
  dictionary dynamic program it replaced is the test oracle
  ``tests/cut_reference.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

import numpy as np

from repro.aig.aig import Aig
from repro.aig.literals import lit_var
from repro.logic.truth import full_mask, simulate_cone, var_table


class CutResult:
    """Result of a reconvergence-driven cut computation.

    Attributes
    ----------
    root:
        The root variable the cut belongs to.
    leaves:
        The cut: variable ids any PI-to-root path must cross.
    cone:
        AND variables of the associated logic cone (root included,
        leaves excluded).
    work:
        Number of candidate evaluations performed — the unit-work figure
        reported to the parallel machine's cost model.
    """

    __slots__ = ("root", "leaves", "cone", "work")

    def __init__(
        self, root: int, leaves: set[int], cone: set[int], work: int
    ) -> None:
        self.root = root
        self.leaves = leaves
        self.cone = cone
        self.work = work

    def __repr__(self) -> str:
        return (
            f"CutResult(root={self.root}, leaves={sorted(self.leaves)}, "
            f"cone_size={len(self.cone)})"
        )

#: The paper's maximum refactoring cut size: the one definition that
#: the refactoring passes, the command table and the experiment
#: drivers all import (``log2`` runs at 11, see
#: ``repro.experiments.tables.CUT_SIZE_OVERRIDES``).
DEFAULT_CUT_SIZE = 12


def reconv_cut(
    aig: Aig,
    root: int,
    max_cut_size: int,
    expandable: Callable[[int, set[int]], bool] | None = None,
    on_expand: Callable[[int], None] | None = None,
) -> CutResult:
    """Grow a reconvergence-driven cut of ``root`` best-first.

    Starting from the fanins of ``root``, repeatedly replace the leaf
    whose expansion adds the fewest new leaves (the greedy rule of the
    paper's intra-cone traversal) until no leaf can be expanded without
    exceeding ``max_cut_size``.

    Parameters
    ----------
    expandable:
        Optional extra admission predicate ``f(var, cone) -> bool``.
        The parallel collapse stage passes the fanout-free condition
        here (all fanouts of ``var`` already inside ``cone``); without
        it the plain reconvergence-driven cut of sequential refactoring
        is produced.
    on_expand:
        Optional callback invoked once per cone member, right after it
        joins the cone (the root included, before the first expansion
        round).  The column-native collapse keeps its incremental
        read-count bookkeeping here so ``expandable`` becomes an O(1)
        comparison instead of a fanout-list walk.
    """
    if max_cut_size < 2:
        raise ValueError("max_cut_size must be at least 2")
    cone: set[int] = {root}
    if on_expand is not None:
        on_expand(root)
    leaves: set[int] = set()
    for fanin in aig.fanins(root):
        leaves.add(lit_var(fanin))
    # The graph is static while the cut grows, so each leaf's fanin
    # variables (``()`` for a non-AND) are read once per call.
    fanin_vars: dict[int, tuple[int, ...]] = {}
    work = 0
    while True:
        best_var = -1
        best_cost = 3  # any real expansion costs at most +1
        for var in leaves:
            pair = fanin_vars.get(var)
            if pair is None:
                if aig.is_and(var):
                    f0, f1 = aig.fanins(var)
                    pair = (f0 >> 1, f1 >> 1)
                else:
                    pair = ()
                fanin_vars[var] = pair
            if not pair:
                continue
            if expandable is not None and not expandable(var, cone):
                continue
            work += 1
            cost = -1
            for fvar in pair:
                if fvar not in leaves and fvar not in cone:
                    cost += 1
            if cost < best_cost or (cost == best_cost and var < best_var):
                best_var = var
                best_cost = cost
        if best_var < 0 or len(leaves) + best_cost > max_cut_size:
            break
        leaves.discard(best_var)
        cone.add(best_var)
        if on_expand is not None:
            on_expand(best_var)
        for fvar in fanin_vars[best_var]:
            if fvar not in cone:
                leaves.add(fvar)
    return CutResult(root, leaves, cone, work + len(cone))


#: Leaf padding inside the dynamic program: larger than every variable
#: id, so a row sort moves the real leaves to the front.
_PAD = np.iinfo(np.int32).max

#: Set-bit count of every byte value.
_POPCOUNT8 = np.array([bin(byte).count("1") for byte in range(256)],
                      dtype=np.uint8)

#: Truth table of the 1-variable projection ``x_0`` — the table of every
#: trivial cut ``(var,)``.
_TRIVIAL_TABLE = 0b10

#: 2-input AND tables over a sorted fanin pair, indexed
#: ``(swap << 2) | (neg0 << 1) | neg1`` where ``swap`` says fanin 0 is
#: the *larger* variable (so it sits at cut position 1).
_PAIR_TABLES = [
    (var_table(1 if swap else 0, 2) ^ (full_mask(2) if neg0 else 0))
    & (var_table(0 if swap else 1, 2) ^ (full_mask(2) if neg1 else 0))
    for swap in (0, 1)
    for neg0 in (0, 1)
    for neg1 in (0, 1)
]


@cache
def _reexpand_lut() -> np.ndarray:
    """``lut[width, posmask, t]``: table ``t`` re-expressed over a supercut.

    ``t`` is the table of a sub-cut with fewer than four leaves whose
    ``j``-th leaf sits at the ``j``-th set bit of ``posmask`` inside a
    sorted ``width``-leaf supercut (both cuts sorted, so the embedding
    is monotone): ``out[row] = t[sum_j ((row >> pos_j) & 1) << j]``.  A
    sub-cut as wide as its supercut needs no re-expansion.  Built on
    the first enumeration, so runs without rewriting never pay for it.
    """
    lut = np.zeros((5, 16, 256), dtype=np.uint16)
    source = np.arange(256, dtype=np.int64)
    for width in range(1, 5):
        rows = np.arange(1 << width, dtype=np.int64)
        for posmask in range(1, 1 << width):
            positions = [pos for pos in range(width) if posmask >> pos & 1]
            if len(positions) == 4:
                continue
            sub_rows = np.zeros_like(rows)
            for j, pos in enumerate(positions):
                sub_rows |= ((rows >> pos) & 1) << j
            bits = (source[None, :] >> sub_rows[:, None]) & 1
            lut[width, posmask] = (bits << rows[:, None]).sum(axis=0)
    lut.flags.writeable = False  # shared by every call
    return lut


_FULL_MASKS = np.array([full_mask(width) for width in range(5)],
                       dtype=np.int64)


class CutColumns:
    """Every variable's cut list as flat columns, one row per cut.

    Variable ``var`` owns rows ``first[var] .. first[var] + count[var]``
    in list order: its trivial cut ``(var,)`` first, then the merged
    cuts smallest-first.  The constant, PIs and dead ANDs own only
    their trivial cut.  Per row:

    * ``root`` — the owning variable;
    * ``leaves`` — ``(rows, 4)`` int32, sorted ascending, padded with
      ``-1``; ``size`` — the number of real leaves;
    * ``table`` — the root's truth table over the sorted leaves;
    * the cone — AND variables strictly between the cut and the root
      (root included, leaves excluded; empty for the trivial cut), in
      CSR form: ``cone_members[cone_offsets[r]:cone_offsets[r + 1]]``,
      sorted ascending.
    """

    __slots__ = ("first", "count", "root", "leaves", "size", "table",
                 "cone_offsets", "cone_members")

    def __init__(self, first, count, root, leaves, size, table,
                 cone_offsets, cone_members) -> None:
        self.first = first
        self.count = count
        self.root = root
        self.leaves = leaves
        self.size = size
        self.table = table
        self.cone_offsets = cone_offsets
        self.cone_members = cone_members

    def cut(self, row: int) -> list[int]:
        """Sorted leaves of one row."""
        return self.leaves[row, : self.size[row]].tolist()

    def cones(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(members, counts)`` of the cones of many rows."""
        starts = self.cone_offsets[rows]
        counts = self.cone_offsets[rows + 1] - starts
        return self.cone_members[_segments(starts, counts)], counts


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[starts[i], starts[i] + lengths[i])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def enumerate_cuts_with_tables(
    aig: Aig,
    k: int = 4,
    max_cuts_per_node: int = 8,
) -> CutColumns:
    """Enumerate k-feasible cuts of every live AND, as columns.

    Each live AND's list holds its trivial cut ``(var,)`` plus up to
    ``max_cuts_per_node`` merged cuts: the unions of a fanin-0 cut and
    a fanin-1 cut with at most ``k`` leaves, kept smallest-first
    (ordered by ``(len, leaves)``), with any union that is a superset
    of an earlier one dropped.  The constant, PIs and dead ANDs own
    only their trivial cut.  Each row's table equals
    ``simulate_cone(aig, 2 * root, list(cut))`` and its cone is the
    node set the rewriting cone walk visits, without its size cap (see
    :class:`CutColumns`).

    The dynamic program is level-synchronous: each wave takes every
    AND whose fanins are settled and builds all of their (fanin-0 cut
    x fanin-1 cut) pairs at once.  A union is an 8-wide row sort plus a
    duplicate mask; one lexsort on (node, size, leaves) dedupes each
    node's unions in ``(len, tuple)`` order, keeping the first pair per
    union; an entry dominated by any earlier entry of
    its node is dropped (a dropped dominator is itself dominated by a
    kept one, so this keeps the same set as filtering against kept
    entries only) before the per-node truncation.

    Tables are *composed*: a merged cut's function is the AND of its
    fanin functions re-expressed over the union (one gather from a
    precomputed re-expansion table indexed by the sub-cut's position
    mask; a fanin variable that is itself a union member is a
    projection).  Cones are ``{root}`` plus the cones of the non-leaf
    sides, kept as globally sorted ``row * num_vars + member`` keys so
    a ``searchsorted`` finds any member of any earlier row.  The
    composition is exact unless the merge reconverges — a union leaf
    lies inside a side's cone, where the side's function does not treat
    it as free — so those rows fall back to :func:`simulate_cone` and a
    walk that stops at the union.  Inductively every stored table and
    cone is exact, which is what makes the detection sound.

    Only meaningful for ``k <= 4`` (tables are 16-bit); rewriting uses
    ``k = 4``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > 4:
        raise ValueError("composed-table enumeration supports k <= 4")
    reexpand = _reexpand_lut()
    fan0, fan1, dead = aig.arrays()
    num_vars = fan0.size
    stride = max(num_vars, 1)
    is_and = (fan0 >= 0) & ~dead
    ands = np.flatnonzero(is_and)
    others = np.flatnonzero(~is_and)
    capacity = others.size + ands.size * (1 + max_cuts_per_node)
    leaves = np.empty((capacity, 4), dtype=np.int32)
    size = np.empty(capacity, dtype=np.int64)
    table = np.empty(capacity, dtype=np.int64)
    root = np.empty(capacity, dtype=np.int64)
    # 64-bit signatures (OR of ``1 << (var & 63)``) of every row's leaf
    # set and cone: their overlaps are necessary conditions that prune
    # the exact size, dominance and reconvergence tests.
    leaf_sig = np.empty(capacity, dtype=np.uint64)
    cone_sig = np.zeros(capacity, dtype=np.uint64)
    cone_offsets = np.zeros(capacity + 1, dtype=np.int64)
    keys = np.empty(max(capacity, 16), dtype=np.int64)
    num_keys = 0
    first = np.zeros(num_vars, dtype=np.int64)
    count = np.ones(num_vars, dtype=np.int64)
    var_bit = np.left_shift(
        np.uint64(1), (np.arange(num_vars) & 63).astype(np.uint64)
    )

    # Variables that are not live ANDs own only their trivial cut.
    used = others.size
    leaves[:used] = _PAD
    leaves[:used, 0] = others
    size[:used] = 1
    table[:used] = _TRIVIAL_TABLE
    root[:used] = others
    leaf_sig[:used] = var_bit[others]
    first[others] = np.arange(used)

    settled = ~is_and
    active = ands
    act0 = fan0[ands]
    act1 = fan1[ands]
    while active.size:
        ready = settled[act0 >> 1] & settled[act1 >> 1]
        nodes = active[ready]
        lit0 = act0[ready]
        lit1 = act1[ready]
        keep = ~ready
        active = active[keep]
        act0 = act0[keep]
        act1 = act1[keep]
        settled[nodes] = True
        num_nodes = nodes.size
        v0 = lit0 >> 1
        v1 = lit1 >> 1

        # Every (fanin-0 cut x fanin-1 cut) pair of the wave, node-major
        # and fanin-0-major: the per-node merge's scan order.  Pairs
        # whose leaf signature already has more than k bits set are
        # dropped before any union is built.
        c1 = count[v1]
        npairs = count[v0] * c1
        node_of = np.repeat(np.arange(num_nodes), npairs)
        i0, i1 = np.divmod(
            _segments(np.zeros(num_nodes, dtype=np.int64), npairs),
            c1[node_of],
        )
        side0 = first[v0][node_of] + i0
        side1 = first[v1][node_of] + i1
        sig = leaf_sig[side0] | leaf_sig[side1]
        pick = np.flatnonzero(
            _POPCOUNT8[sig.view(np.uint8)].reshape(-1, 8).sum(axis=1) <= k
        )
        union = np.concatenate(
            (leaves[side0[pick]], leaves[side1[pick]]), axis=1
        )
        union.sort(axis=1)
        union[:, 1:][union[:, 1:] == union[:, :-1]] = _PAD
        usize = np.count_nonzero(union != _PAD, axis=1)
        fits = np.flatnonzero(usize <= k)
        pick = pick[fits]
        union = np.sort(union[fits], axis=1)[:, :4]
        usize = usize[fits]

        # Dedupe and order each node's unions by (size, leaves); the
        # stable lexsort keeps the first pair of every union.
        group = node_of[pick] * 8 + usize
        wide = union.astype(np.int64)
        high = (wide[:, 0] << 32) | wide[:, 1]
        low = (wide[:, 2] << 32) | wide[:, 3]
        order = np.lexsort((low, high, group))
        group = group[order]
        high = high[order]
        low = low[order]
        fresh = np.ones(order.size, dtype=bool)
        fresh[1:] = (
            (group[1:] != group[:-1])
            | (high[1:] != high[:-1])
            | (low[1:] != low[:-1])
        )
        entry = order[fresh]
        e_group = group[fresh]
        e_pair = pick[entry]
        e_node = node_of[e_pair]
        e_sig = sig[e_pair]
        num_entries = entry.size

        # Dominance: entry j against the earlier, strictly smaller
        # entries of its node (equal sizes dedupe instead).
        position = np.arange(num_entries)
        starts = np.ones(num_entries, dtype=bool)
        starts[1:] = e_group[1:] != e_group[:-1]
        size_start = np.maximum.accumulate(np.where(starts, position, 0))
        starts[1:] = e_node[1:] != e_node[:-1]
        node_start = np.maximum.accumulate(np.where(starts, position, 0))
        smaller = size_start - node_start
        alive = np.ones(num_entries, dtype=bool)
        if smaller.any():
            later = np.repeat(position, smaller)
            earlier = np.repeat(node_start, smaller) + _segments(
                np.zeros(num_entries, dtype=np.int64), smaller
            )
            maybe = np.flatnonzero((e_sig[earlier] & ~e_sig[later]) == 0)
            if maybe.size:
                later = later[maybe]
                sub = union[entry[earlier[maybe]]]
                covered = (
                    sub[:, :, None] == union[entry[later]][:, None, :]
                ).any(axis=2)
                subset = (covered | (sub == _PAD)).all(axis=1)
                alive[later[subset]] = False
        ranked = np.cumsum(alive)
        rank = ranked - ranked[node_start] + alive[node_start]
        kept = np.flatnonzero(alive & (rank <= max_cuts_per_node))
        k_node = e_node[kept]
        k_pair = e_pair[kept]
        k_union = union[entry[kept]]
        k_size = e_group[kept] & 7
        k_sig = e_sig[kept]
        k_var = nodes[k_node]

        # Row layout: each node's block is its trivial cut, then its
        # kept unions in order.
        block = 1 + np.bincount(k_node, minlength=num_nodes)
        base = used
        block_start = base + np.cumsum(block) - block
        used = base + int(block.sum())
        first[nodes] = block_start
        count[nodes] = block
        leaves[block_start] = _PAD
        leaves[block_start, 0] = nodes
        size[block_start] = 1
        table[block_start] = _TRIVIAL_TABLE
        root[block_start] = nodes
        leaf_sig[block_start] = var_bit[nodes]
        rows = block_start[k_node] + rank[kept]
        leaves[rows] = k_union
        size[rows] = k_size
        root[rows] = k_var
        leaf_sig[rows] = k_sig

        # Composed tables and the reconvergence test, both sides of
        # every kept union stacked (side 0 rows first).
        sides = np.concatenate((side0[k_pair], side1[k_pair]))
        lits = np.concatenate((lit0[k_node], lit1[k_node]))
        s_union = np.concatenate((k_union, k_union))
        s_size = np.concatenate((k_size, k_size))
        at = s_union == (lits >> 1)[:, None]
        member = at.any(axis=1)
        # A side whose variable is a union member is the projection of
        # that position; otherwise its leaves' positions in the union.
        flags = (leaves[sides][:, :, None] == s_union[:, None, :]).any(
            axis=1
        ) & (s_union != _PAD)
        flags[member] = at[member]
        posmask = np.packbits(flags, axis=1, bitorder="little")[:, 0]
        sub_size = np.where(member, 1, size[sides])
        sub_table = np.where(member, _TRIVIAL_TABLE, table[sides])
        full = _FULL_MASKS[s_size]
        side_table = np.where(
            sub_size == s_size,
            sub_table,
            reexpand[s_size, posmask, sub_table & 255],
        ) ^ (full * (lits & 1))
        num_kept = kept.size
        table[rows] = side_table[:num_kept] & side_table[num_kept:]
        outside = np.flatnonzero(~member)
        side_cone_sig = np.zeros(2 * num_kept, dtype=np.uint64)
        side_cone_sig[outside] = cone_sig[sides[outside]]
        cone_sig[rows] = (
            var_bit[k_var]
            | side_cone_sig[:num_kept]
            | side_cone_sig[num_kept:]
        )
        hit = np.zeros(2 * num_kept, dtype=bool)
        probe = np.flatnonzero(side_cone_sig & np.concatenate((k_sig, k_sig)))
        if probe.size:
            query = sides[probe, None] * stride + s_union[probe]
            query[s_union[probe] == _PAD] = -1
            found = np.searchsorted(keys[:num_keys], query)
            found = np.minimum(found, num_keys - 1)
            hit[probe] = (keys[found] == query).any(axis=1)
        reconv = hit[:num_kept] | hit[num_kept:]

        # Cones: {root} plus the non-leaf sides' cones.  Every part is
        # sorted by (row, member), so one stable (run-merging) sort and
        # a duplicate mask give the level's sorted key block.
        parts = [rows * stride + k_var]
        take = outside[~np.concatenate((reconv, reconv))[outside]]
        picked = sides[take]
        lengths = cone_offsets[picked + 1] - cone_offsets[picked]
        if lengths.any():
            parts.append(
                keys[_segments(cone_offsets[picked], lengths)]
                + np.repeat(
                    (np.concatenate((rows, rows))[take] - picked) * stride,
                    lengths,
                )
            )
        for index in np.flatnonzero(reconv).tolist():
            row = int(rows[index])
            var = int(k_var[index])
            tup = k_union[index, : k_size[index]].tolist()
            table[row] = simulate_cone(aig, var << 1, tup)
            stop = set(tup)
            cone_set: set[int] = set()
            stack = [var]
            while stack:
                node = stack.pop()
                if node in cone_set or node in stop:
                    continue
                cone_set.add(node)
                stack.append(int(fan0[node]) >> 1)
                stack.append(int(fan1[node]) >> 1)
            members = np.array(sorted(cone_set), dtype=np.int64)
            cone_sig[row] = np.bitwise_or.reduce(var_bit[members])
            parts.append(row * stride + members)
        level_keys = np.sort(np.concatenate(parts), kind="stable")
        level_keys = level_keys[
            np.concatenate(([True], level_keys[1:] != level_keys[:-1]))
        ]
        members_per_row = np.bincount(
            level_keys // stride - base, minlength=used - base
        )
        cone_offsets[base + 1 : used + 1] = (
            cone_offsets[base] + np.cumsum(members_per_row)
        )
        if num_keys + level_keys.size > keys.size:
            grown = np.empty(
                max(2 * keys.size, num_keys + level_keys.size),
                dtype=np.int64,
            )
            grown[:num_keys] = keys[:num_keys]
            keys = grown
        keys[num_keys : num_keys + level_keys.size] = level_keys
        num_keys += level_keys.size

    leaves = leaves[:used]
    leaves[leaves == _PAD] = -1
    cone_offsets = cone_offsets[: used + 1]
    cone_members = keys[:num_keys] - np.repeat(
        np.arange(used, dtype=np.int64) * stride, np.diff(cone_offsets)
    )
    return CutColumns(first, count, root[:used], leaves, size[:used],
                      table[:used], cone_offsets, cone_members)
