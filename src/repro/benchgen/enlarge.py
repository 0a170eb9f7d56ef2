"""Benchmark enlargement (the ABC ``double`` command).

The paper's "_nxd" benchmarks are produced by applying ``double`` n
times: each application duplicates the whole network (fresh PIs and
POs), doubling the node count while keeping the level count — the
Figure 7 scaling sweeps depend on exactly this behaviour.

``double`` runs vectorized (:func:`_double_bulk`) whenever the source
graph is strashed and fold-free — no dead rows, no constant or shared
fanins, no duplicate fanin keys, all of which the disjoint copies
preserve.  Then the node-by-node replay can never fold or reuse a
node, so the whole output is one column copy plus a literal remap
gather and a bulk strash build.  The precondition is checked
explicitly and cheaply at every size; any violation falls back to
:func:`_double_loop`, which is bit-identical (docs/ARCHITECTURE.md,
"Bulk construction").
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import CONST_FANIN, PI_FANIN, Aig, fold_free
from repro.aig.literals import lit_compl, lit_not_cond, lit_var


def _double_loop(aig: Aig) -> Aig:
    """Scalar ``double``: replay every node twice through ``add_and``."""
    out = Aig(f"{aig.name}_2x")
    out.reserve(2 * aig.num_vars, 2 * aig.num_ands)
    for copy in range(2):
        # Indexed by source var (dense ids); a dict here dominates the
        # build at the million-node scales the Figure 7 lane uses.
        lit_map: list[int] = [0] * aig.num_vars
        for index, var in enumerate(aig.pis):
            name = aig.pi_name(index)
            lit_map[var] = out.add_pi(
                f"{name}_c{copy}" if name else None
            )
        for var in aig.and_vars():
            f0, f1 = aig.fanins(var)
            n0 = lit_not_cond(lit_map[lit_var(f0)], lit_compl(f0))
            n1 = lit_not_cond(lit_map[lit_var(f1)], lit_compl(f1))
            lit_map[var] = out.add_and(n0, n1)
        for index, po_lit in enumerate(aig.pos):
            name = aig.po_name(index)
            out.add_po(
                lit_not_cond(lit_map[lit_var(po_lit)], lit_compl(po_lit)),
                f"{name}_c{copy}" if name else None,
            )
    return out


def _double_bulk(aig: Aig) -> Aig | None:
    """Vectorized ``double``, or ``None`` when the gate fails.

    Gate (the "no-fold precondition"): no dead rows, every AND fanin a
    non-constant literal of a *different* variable, and
    pairwise-distinct fanin keys.  Under it the scalar replay is a
    pure renumbering — every ``add_and`` misses the strash and
    creates — so both copies are built as one gather per column and
    the strash is populated with a single bulk build.  An AND-free
    graph passes trivially.
    """
    fan0, fan1, dead = aig.arrays()
    if bool(dead.any()):
        return None
    and_rows = np.flatnonzero(fan0 >= 0)
    src_k0 = fan0[and_rows]
    src_k1 = fan1[and_rows]
    if not fold_free(src_k0, src_k1):
        return None
    num = aig.num_vars
    num_pis = aig.num_pis
    num_ands = and_rows.shape[0]
    span = num_pis + num_ands  # variables per copy
    # Copy-0 variable remap; copy 1 is the same map shifted by span
    # (the constant stays var 0 in both copies — the scalar loop's
    # ``lit_map`` leaves index 0 at literal 0).
    remap = np.full(num, -1, dtype=np.int64)
    remap[0] = 0
    pi_vars = np.asarray(aig.pis, dtype=np.int64)
    remap[pi_vars] = 1 + np.arange(num_pis, dtype=np.int64)
    remap[and_rows] = (
        1 + num_pis + np.arange(num_ands, dtype=np.int64)
    )
    nf0 = (remap[src_k0 >> 1] << 1) | (src_k0 & 1)
    nf1 = (remap[src_k1 >> 1] << 1) | (src_k1 & 1)
    and_k0 = np.minimum(nf0, nf1)
    and_k1 = np.maximum(nf0, nf1)
    lit_shift = 2 * span
    total = 1 + 2 * span
    f0col = np.empty(total, dtype=np.int64)
    f1col = np.empty(total, dtype=np.int64)
    f0col[0] = f1col[0] = CONST_FANIN
    for base in (1, 1 + span):
        f0col[base : base + num_pis] = PI_FANIN
        f1col[base : base + num_pis] = PI_FANIN
    f0col[1 + num_pis : 1 + span] = and_k0
    f1col[1 + num_pis : 1 + span] = and_k1
    f0col[1 + span + num_pis :] = and_k0 + lit_shift
    f1col[1 + span + num_pis :] = and_k1 + lit_shift
    old_pos = np.asarray(aig.pos, dtype=np.int64)
    new_pos = (remap[old_pos >> 1] << 1) | (old_pos & 1)
    # The copy-1 shift skips constant-driven POs (still literal 0/1).
    pos_c1 = np.where(
        (old_pos >> 1) == 0, new_pos, new_pos + lit_shift
    )
    src_pi_names = [aig.pi_name(i) for i in range(num_pis)]
    src_po_names = [aig.po_name(i) for i in range(aig.num_pos)]
    pi_names = [
        f"{name}_c{copy}" if name else None
        for copy in range(2)
        for name in src_pi_names
    ]
    po_names = [
        f"{name}_c{copy}" if name else None
        for copy in range(2)
        for name in src_po_names
    ]
    copy0_pis = 1 + np.arange(num_pis, dtype=np.int64)
    copy0_ands = 1 + num_pis + np.arange(num_ands, dtype=np.int64)
    return Aig._from_flat(
        f"{aig.name}_2x",
        f0col,
        f1col,
        np.concatenate((copy0_pis, copy0_pis + span)),
        pi_names,
        np.concatenate((new_pos, pos_c1)),
        po_names,
        np.concatenate((and_k0, and_k0 + lit_shift)),
        np.concatenate((and_k1, and_k1 + lit_shift)),
        np.concatenate((copy0_ands, copy0_ands + span)),
    )


def double(aig: Aig) -> Aig:
    """One application of ``double``: two disjoint copies, side by side."""
    out = _double_bulk(aig)
    if out is None:
        out = _double_loop(aig)
    return out


def enlarge(aig: Aig, times: int) -> Aig:
    """Apply :func:`double` ``times`` times (the "_<times>xd" suffix)."""
    if times < 0:
        raise ValueError("times must be non-negative")
    result = aig
    for _ in range(times):
        result = double(result)
    base = aig.name
    result.name = f"{base}_{times}xd" if times else base
    return result
