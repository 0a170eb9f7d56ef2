"""Dictionary reference for the columnar cut enumeration.

:func:`reference_cuts_with_tables` is the per-node scalar dynamic
program that :func:`repro.aig.cuts.enumerate_cuts_with_tables` replaced:
one Python merge/sort/dominance loop per AND node, tables composed
through per-position re-expansion lists and cones kept as frozensets.
The tests compare the columns against it cut by cut.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.aig.aig import Aig
from repro.aig.cuts import _PAIR_TABLES
from repro.logic.truth import full_mask, simulate_cone, var_table

_EMPTY_FROZEN: frozenset[int] = frozenset()

#: Truth table of the 1-variable projection ``x_0`` — the table of every
#: trivial cut ``(var,)``.
_TRIVIAL_TABLE = 0b10


@lru_cache(maxsize=None)
def _expand_lut(positions: tuple[int, ...], num_vars: int) -> list[int]:
    """Lookup table re-expressing a sub-cut function over a supercut.

    ``positions[j]`` is the index, within the ``num_vars``-variable
    supercut, of the sub-cut's ``j``-th variable (both cuts sorted, so
    the embedding is monotone).  Entry ``t`` of the returned list is the
    table of the same function with its inputs renamed accordingly:
    ``out[row] = t[sum_j ((row >> positions[j]) & 1) << j]``.

    Built once per (positions, num_vars) pair with NumPy — the only
    caller is the composed-table enumeration.
    """
    k_in = len(positions)
    size = 1 << (1 << k_in)
    source = np.arange(size, dtype=np.uint32)
    out = np.zeros(size, dtype=np.uint32)
    for row in range(1 << num_vars):
        sub_row = 0
        for j, pos in enumerate(positions):
            if (row >> pos) & 1:
                sub_row |= 1 << j
        out |= ((source >> np.uint32(sub_row)) & np.uint32(1)) << np.uint32(
            row
        )
    return out.tolist()


def reference_cuts_with_tables(
    aig: Aig,
    k: int = 4,
    max_cuts_per_node: int = 8,
) -> tuple[
    dict[int, list[tuple[int, ...]]],
    dict[int, list[int]],
    dict[int, list[frozenset[int]]],
]:
    """Every variable's cut list plus per-cut truth tables and cone sets.

    Returns ``(cuts, tables, cones)``, keyed by the constant, the PIs
    and the live ANDs: ``cuts[var]`` is the trivial cut ``(var,)``
    followed by the merged cuts smallest-first, as sorted leaf tuples
    (the lists the columns of
    :func:`repro.aig.cuts.enumerate_cuts_with_tables` hold);
    ``tables[var][i]``
    equals ``simulate_cone(aig, 2 * var, list(cuts[var][i]))``;
    ``cones[var][i]`` is the frozenset of AND variables strictly between
    the cut and the root (root included, leaves excluded) — the exact
    node set the rewriting cone walk visits, without its size cap.

    Tables are *composed* bottom-up: a merged cut's function is the AND
    of its fanin functions re-expressed over the union cut (a cached
    positional re-expansion, or a projection when the fanin variable is
    itself a union member).  The composition is exact unless the merged
    cut reconverges — some union member lies **inside** one fanin's
    cone, where the stored fanin function does not treat it as free —
    which the cone sets detect (``cone & union``); those cuts fall back
    to plain simulation.  Inductively every stored table and cone set
    is therefore exact, which is what makes the detection sound.

    Only meaningful for ``k <= 4`` (the re-expansion LUTs are sized
    ``2**2**k``); rewriting uses ``k = 4``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > 4:
        raise ValueError("composed-table enumeration supports k <= 4")
    cuts: dict[int, list[tuple[int, ...]]] = {0: [(0,)]}
    tables: dict[int, list[int]] = {0: [_TRIVIAL_TABLE]}
    cones: dict[int, list[frozenset[int]]] = {0: [_EMPTY_FROZEN]}
    fsets: dict[int, list[frozenset[int]]] = {0: [frozenset((0,))]}
    # 64-bit leaf signatures (OR of ``1 << (leaf & 63)``): the popcount
    # of a merged signature lower-bounds the union size, pruning most
    # oversized merges before any frozenset is built.
    sigs: dict[int, list[int]] = {0: [1]}
    for var in aig.pis:
        cuts[var] = [(var,)]
        tables[var] = [_TRIVIAL_TABLE]
        cones[var] = [_EMPTY_FROZEN]
        fsets[var] = [frozenset((var,))]
        sigs[var] = [1 << (var & 63)]
    fan0 = aig._fanin0
    fan1 = aig._fanin1
    masks = [full_mask(width) for width in range(k + 1)]
    cuts_get = cuts.get
    for var in aig.and_vars():
        f0 = fan0[var]
        f1 = fan1[var]
        v0 = f0 >> 1
        v1 = f1 >> 1
        side0 = cuts_get(v0)
        side1 = cuts_get(v1)
        if (
            (side0 is None or len(side0) == 1)
            and (side1 is None or len(side1) == 1)
            and v0 != v1
        ):
            # Both fanins carry only their trivial cut (PIs, const, or
            # unenumerated vars): the single merged cut is the fanin
            # pair, its table one of eight precomputed 2-input ANDs.
            # The common case on wide, shallow netlists.
            tup = (v0, v1) if v0 < v1 else (v1, v0)
            cuts[var] = [(var,), tup]
            tables[var] = [
                _TRIVIAL_TABLE,
                _PAIR_TABLES[((v0 > v1) << 2) | ((f0 & 1) << 1) | (f1 & 1)],
            ]
            cones[var] = [_EMPTY_FROZEN, frozenset((var,))]
            fsets[var] = [frozenset((var,)), frozenset(tup)]
            sigs[var] = [
                1 << (var & 63),
                (1 << (v0 & 63)) | (1 << (v1 & 63)),
            ]
            continue
        sides = []
        for vx in (v0, v1):
            if vx in cuts:
                sides.append(
                    (cuts[vx], fsets[vx], tables[vx], cones[vx], sigs[vx])
                )
            else:
                sides.append(
                    (
                        [(vx,)],
                        [frozenset((vx,))],
                        [_TRIVIAL_TABLE],
                        [_EMPTY_FROZEN],
                        [1 << (vx & 63)],
                    )
                )
        (
            (cuts0, fsets0, tabs0, cones0, sigs0),
            (cuts1, fsets1, tabs1, cones1, sigs1),
        ) = sides
        if len(fsets0) == 1 and len(fsets1) == 1:
            # Single cut on both sides but equal fanin vars: one merge,
            # nothing to sort or dominate.
            union = fsets0[0] | fsets1[0]
            if len(union) <= k:
                kept = [
                    (
                        len(union),
                        tuple(sorted(union)),
                        union,
                        0,
                        0,
                        sigs0[0] | sigs1[0],
                    )
                ]
            else:
                kept = []
        else:
            merged: dict[frozenset[int], tuple[int, int, int]] = {}
            setdefault = merged.setdefault
            for i0, fs0 in enumerate(fsets0):
                sg0 = sigs0[i0]
                for i1, fs1 in enumerate(fsets1):
                    sg = sg0 | sigs1[i1]
                    if sg.bit_count() > k:
                        continue
                    union = fs0 | fs1
                    if len(union) <= k:
                        setdefault(union, (i0, i1, sg))
            # Sorting on (size, leaves) tuples never reaches the
            # frozenset element (leaf tuples are unique), so no key
            # function is needed; dominance filtering then walks
            # smallest-first and can stop at the per-node cut limit.
            # The signature is set-determined, so any winning pair
            # carries the same value.
            entries = [
                (len(union), tuple(sorted(union)), union, i0, i1, sg)
                for union, (i0, i1, sg) in merged.items()
            ]
            if len(entries) > 1:
                entries.sort()
            kept = []
            for entry in entries:
                union = entry[2]
                if any(other[2] <= union for other in kept):
                    continue
                kept.append(entry)
                if len(kept) == max_cuts_per_node:
                    break
        node_cuts = [(var,)]
        node_tabs = [_TRIVIAL_TABLE]
        node_cones = [_EMPTY_FROZEN]
        node_fsets = [frozenset((var,))]
        node_sigs = [1 << (var & 63)]
        for kc, tup, union, i0, i1, sg in kept:
            mask = masks[kc]
            table = -1
            cone: frozenset[int] = _EMPTY_FROZEN
            for vx, flit, ix, scuts, stabs, scones in (
                (v0, f0, i0, cuts0, tabs0, cones0),
                (v1, f1, i1, cuts1, tabs1, cones1),
            ):
                if vx in union:
                    t = var_table(tup.index(vx), kc)
                else:
                    sub_cone = scones[ix]
                    if sub_cone & union:
                        # Reconvergent merge: a union member sits inside
                        # this side's cone, so the stored function does
                        # not treat it as a free input.  Simulate.
                        table = -1
                        break
                    cone |= sub_cone
                    sub = scuts[ix]
                    t = stabs[ix]
                    if len(sub) != kc:
                        pos = 0
                        positions = []
                        for leaf in sub:
                            while tup[pos] != leaf:
                                pos += 1
                            positions.append(pos)
                            pos += 1
                        t = _expand_lut(tuple(positions), kc)[t]
                if flit & 1:
                    t ^= mask
                table = t if table == -1 else table & t
            else:
                cone = frozenset((var,)) | cone
            if table == -1:
                table = simulate_cone(aig, var << 1, list(tup))
                cone_set = set()
                stack = [var]
                while stack:
                    node = stack.pop()
                    if node in cone_set or node in union:
                        continue
                    cone_set.add(node)
                    stack.append(fan0[node] >> 1)
                    stack.append(fan1[node] >> 1)
                cone = frozenset(cone_set)
            node_cuts.append(tup)
            node_tabs.append(table)
            node_cones.append(cone)
            node_fsets.append(union)
            node_sigs.append(sg)
        cuts[var] = node_cuts
        tables[var] = node_tabs
        cones[var] = node_cones
        fsets[var] = node_fsets
        sigs[var] = node_sigs
    return cuts, tables, cones
