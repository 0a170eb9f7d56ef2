"""Control-logic circuit generators.

Stand-ins for the IWLS 2005 OpenCores controllers (``mem_ctrl``,
``ac97_ctrl``, ``vga_lcd``) the paper adds to its suite: wide, shallow
netlists dominated by decoders, multiplexers and random two-level
control expressions — the regime where level-wise parallel passes get
their widest batches.
"""

from __future__ import annotations

import random

from repro.aig.aig import Aig
from repro.aig.literals import CONST0
from repro.benchgen.arith import mux_gate


def decoder(width: int) -> Aig:
    """``width``-to-2^``width`` one-hot decoder."""
    aig = Aig(f"decoder{width}")
    sel = [aig.add_pi(f"s{index}") for index in range(width)]
    for value in range(1 << width):
        term = CONST0 ^ 1  # const 1
        for bit, literal in enumerate(sel):
            term = aig.add_and(
                term, literal if value >> bit & 1 else literal ^ 1
            )
        aig.add_po(term, f"y{value}")
    return aig


def random_control(
    num_pis: int,
    num_layers: int,
    layer_width: int,
    seed: int = 1,
    name: str = "control",
    rng: random.Random | None = None,
) -> Aig:
    """Layered random control logic: shallow, wide, mux/decoder-flavoured.

    Each layer draws operands from the previous layer only, bounding
    the depth at roughly ``3 * num_layers`` levels regardless of width —
    the flat level profile of the OpenCores controllers (e.g. 48M nodes
    at 114 levels for ``mem_ctrl_10xd``).

    ``rng`` threads an external generator through (``seed`` is ignored
    then) for harnesses deriving many cases from one master seed.
    """
    rng = rng if rng is not None else random.Random(seed)
    aig = Aig(name)
    previous = [aig.add_pi(f"i{index}") for index in range(num_pis)]
    for _ in range(num_layers):
        current: list[int] = []
        for _ in range(layer_width):
            kind = rng.random()
            a = rng.choice(previous) ^ rng.randint(0, 1)
            b = rng.choice(previous) ^ rng.randint(0, 1)
            if kind < 0.45:
                current.append(aig.add_and(a, b))
            elif kind < 0.75:
                sel = rng.choice(previous) ^ rng.randint(0, 1)
                current.append(mux_gate(aig, sel, a, b))
            else:  # OR term, the two-level control idiom
                current.append(aig.add_and(a ^ 1, b ^ 1) ^ 1)
        previous = current
    for index, literal in enumerate(previous):
        aig.add_po(literal, f"o{index}")
    compacted = aig.compact()
    return compacted
