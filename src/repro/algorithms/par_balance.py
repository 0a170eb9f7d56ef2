"""GPU-parallel AND-balancing (paper, Section IV).

The recursive ABC algorithm interleaves cluster collapse and subtree
reconstruction; the parallel reformulation separates them into two
stages (Section IV-B) justified by Property 3 (reconstruction order
does not affect delay as long as topological dependencies hold):

1. **Collapse** — identify all maximal AND clusters ("n-input AND
   nodes") level-wise from POs to PIs with a frontier array, exactly
   like the refactoring collapse but without early-stopping.
2. **Reconstruction** — process the collapsed network's levels from PIs
   to POs; within one level, all subtrees are rebuilt simultaneously by
   repeated synchronized *insertion passes*, each creating one new AND
   per subtree by combining its two minimum-delay operands through the
   shared GPU hash table (Figure 6).

Both stages run as column kernels
(:func:`repro.algorithms.kernels.balance_collapse` and
:func:`~repro.algorithms.kernels.balance_reconstruct`), which report
batch/work profiles to the
:class:`~repro.parallel.machine.ParallelMachine` for the cost model.
"""

from __future__ import annotations

import random

from repro import observe
from repro.aig.aig import Aig
from repro.algorithms import kernels
from repro.algorithms.common import PassResult
from repro.engine.context import context_for
from repro.engine.registry import (
    PassInvocation,
    register_command,
    register_pass,
)
from repro.parallel.machine import ParallelMachine


@register_pass(
    "par_balance", engine="gpu", description="level-wise parallel balancing"
)
def par_balance(
    aig: Aig,
    machine: ParallelMachine | None = None,
    order_rng: random.Random | None = None,
) -> PassResult:
    """Balance an AIG with the level-wise parallel algorithm.

    ``order_rng`` shuffles the within-level subtree processing order of
    the reconstruction stage — Property 3 says the resulting delay is
    order-invariant, and the property-based tests exercise exactly
    this knob.
    """
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()

    # Column-native stages (docs/ARCHITECTURE.md, "Column-native
    # passes").
    with observe.span("b.collapse", "stage"):
        plan = kernels.balance_collapse(aig, machine)
    observe.count("b.clusters_collapsed", plan.num_roots)
    with observe.span("b.reconstruct", "stage"):
        new, mapped = kernels.balance_reconstruct(
            aig, plan, machine, order_rng=order_rng
        )
    kernels.balance_finalize_pos(aig, new, mapped)
    machine.host("b.finalize", aig.num_pos)
    result, _ = new.compact()
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"clusters": plan.num_roots},
    )


@register_command("b", "gpu", description="level-wise parallel balancing")
def _bind_b(invocation: PassInvocation) -> list[PassResult]:
    return [par_balance(invocation.aig, machine=invocation.machine)]
