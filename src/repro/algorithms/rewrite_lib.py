"""The rewriting library: optimized structures per 4-input NPN class.

ABC ships a precomputed library of optimal subgraphs for the 222 NPN
classes of 4-input functions.  Rebuilding that exact library offline is
out of scope (documented substitution in DESIGN.md); instead, the first
time a class is seen its canonical function is synthesized through
ISOP + algebraic factoring (both polarities) and the resulting template
AIG is cached for the rest of the process — functionally a rewriting
library with factoring-quality entries.
"""

from __future__ import annotations

from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_not_cond, lit_var
from repro.logic.npn import NpnTransform, npn_canon, npn_leaf_assignment
from repro.logic.resyn import plan_resynthesis

_TEMPLATES: dict[tuple[int, int], Aig] = {}


def library_template(canon: int, num_vars: int) -> Aig:
    """Template AIG of an NPN-canonical function (cached).

    The library outlives every run, so it plans through the uncached
    planner: the run-scoped plan cache, and its hit/miss counters, see
    only the refactoring passes of the current run.
    """
    key = (canon, num_vars)
    template = _TEMPLATES.get(key)
    if template is None:
        plan = plan_resynthesis.__wrapped__(canon, num_vars)
        if plan is None:  # unreachable for <= 4 inputs (<= 8 cubes)
            raise AssertionError("library function exceeded the cube cap")
        template = _TEMPLATES[key] = plan.template
    return template


class RewriteCandidate:
    """A library match for one cut of one node."""

    __slots__ = ("leaves", "transform", "template", "est_gain")

    def __init__(
        self,
        leaves: list[int],
        transform: NpnTransform,
        template: Aig,
        est_gain: int,
    ) -> None:
        self.leaves = leaves
        self.transform = transform
        self.template = template
        self.est_gain = est_gain


def match_function(table: int, leaves: list[int]) -> tuple[NpnTransform, Aig]:
    """NPN-canonicalize a cut function and fetch its library template."""
    transform = npn_canon(table, len(leaves))
    template = library_template(transform.canon, len(leaves))
    return transform, template


def instantiate_template(
    template: Aig,
    transform: NpnTransform,
    leaf_lits: list[int],
    add_and,
) -> int:
    """Build the template over concrete leaves; returns the root literal.

    ``leaf_lits[v]`` realizes original cut variable ``v``; the NPN
    transform dictates which (possibly complemented) leaf feeds each
    canonical input and whether the output complements.
    """
    inputs, out_neg = npn_leaf_assignment(transform, leaf_lits)
    lit_map: dict[int, int] = {0: 0}
    for t_var, literal in zip(template.pis, inputs):
        lit_map[t_var] = literal
    for t_var in template.and_vars():
        f0, f1 = template.fanins(t_var)
        n0 = lit_not_cond(lit_map[lit_var(f0)], lit_compl(f0))
        n1 = lit_not_cond(lit_map[lit_var(f1)], lit_compl(f1))
        lit_map[t_var] = add_and(n0, n1)
    po_lit = template.pos[0]
    root = lit_not_cond(lit_map[lit_var(po_lit)], lit_compl(po_lit))
    return root ^ 1 if out_neg else root
