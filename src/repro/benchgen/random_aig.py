"""Random AIG generators (the MtM-benchmark regime).

The EPFL "More than a Million" cases (``sixteen``/``twenty``/
``twentythree``) are random Boolean functions rather than real
circuits; :func:`mtm_random` generates the equivalent: a layered random
AIG with a controlled node/level profile and every node reachable from
some PO.
"""

from __future__ import annotations

import random

from repro.aig.aig import Aig
from repro.aig.traversal import fanout_counts


def mtm_random(
    num_pis: int,
    num_nodes: int,
    num_pos: int,
    seed: int = 2023,
    locality: int = 64,
    name: str = "mtm",
    rng: random.Random | None = None,
) -> Aig:
    """Random AIG with roughly ``num_nodes`` AND nodes.

    ``locality`` bounds how far back the first operand of each new node
    may reach; larger values flatten the graph (fewer levels), smaller
    values deepen it.  All dangling nodes are promoted to POs so the
    whole graph is functionally observable, then ``num_pos`` primary
    outputs are kept as genuine outputs and the rest grouped into
    reduction trees to preserve reachability without inflating the PO
    count.

    ``rng`` threads an external generator through (``seed`` is ignored
    then), so harnesses deriving many cases from one master seed stay
    reproducible end to end.
    """
    rng = rng if rng is not None else random.Random(seed)
    aig = Aig(name)
    literals = [aig.add_pi(f"i{index}") for index in range(num_pis)]
    while aig.num_ands < num_nodes:
        a = rng.choice(literals[-locality:]) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.add_and(a, b))
    counts = fanout_counts(aig)
    dangling = [
        (var << 1) | rng.randint(0, 1)
        for var in aig.and_vars()
        if counts[var] == 0
    ]
    rng.shuffle(dangling)
    keep = dangling[:num_pos]
    rest = dangling[num_pos:]
    # Fold the remaining dangling signals into wide XOR-ish reduction
    # trees so they stay observable through a handful of extra POs.
    while len(rest) > 1:
        folded = []
        for index in range(0, len(rest) - 1, 2):
            a, b = rest[index], rest[index + 1]
            folded.append(
                aig.add_and(
                    aig.add_and(a, b) ^ 1, aig.add_and(a ^ 1, b ^ 1) ^ 1
                )
            )
        if len(rest) % 2:
            folded.append(rest[-1])
        rest = folded
    for index, literal in enumerate(keep):
        aig.add_po(literal, f"o{index}")
    if rest:
        aig.add_po(rest[0], "oxor")
    compacted = aig.compact()
    return compacted
