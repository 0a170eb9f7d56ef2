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

from repro import observe
from repro.aig.aig import Aig
from repro.logic.npn import NpnTransform, npn_canon, npn_leaf_assignment
from repro.logic.resyn import plan_resynthesis

#: A template compiled to a flat step program: its input count ``k``,
#: one ``(slot0, compl0, slot1, compl1)`` quadruple per AND, then the
#: output slot and its complement.  Slot 0 is constant false, slots
#: ``1..k`` the template's inputs in ``pis`` order, and each AND's
#: result takes the next slot.
TemplateProgram = tuple[
    int, tuple[tuple[int, int, int, int], ...], int, int
]

#: ``(canon, num_vars)`` -> the library template and its program.
_TEMPLATES: dict[tuple[int, int], tuple[Aig, TemplateProgram]] = {}


def library_template(canon: int, num_vars: int) -> Aig:
    """Template AIG of an NPN-canonical function (cached).

    The library outlives every run, so it plans through the uncached
    planner: the run-scoped plan cache, and its hit/miss counters, see
    only the refactoring passes of the current run.  For the same
    reason the build runs with counting paused: its work (a strash
    rehash of the template, say) belongs to no run, and would
    otherwise be billed to whichever run asks first.  The template's
    step program is compiled once, beside it.
    """
    key = (canon, num_vars)
    entry = _TEMPLATES.get(key)
    if entry is None:
        with observe.paused():
            plan = plan_resynthesis.__wrapped__(canon, num_vars)
            if plan is None:  # unreachable for <= 4 inputs (<= 8 cubes)
                raise AssertionError(
                    "library function exceeded the cube cap"
                )
            entry = _TEMPLATES[key] = (
                plan.template, compile_template(plan.template)
            )
    return entry[0]


def compile_template(template: Aig) -> TemplateProgram:
    """Flatten ``template``'s live ANDs into a step program."""
    slot_of = {0: 0}
    for t_var in template.pis:
        slot_of[t_var] = len(slot_of)
    steps = []
    for t_var in template.and_vars():
        f0, f1 = template.fanins(t_var)
        steps.append((slot_of[f0 >> 1], f0 & 1, slot_of[f1 >> 1], f1 & 1))
        slot_of[t_var] = len(slot_of)
    po_lit = template.pos[0]
    return len(template.pis), tuple(steps), slot_of[po_lit >> 1], po_lit & 1


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
    canonical input and whether the output complements.  A library
    template runs its stored program; any other template compiles on
    the call.
    """
    entry = _TEMPLATES.get((transform.canon, len(leaf_lits)))
    if entry is not None and entry[0] is template:
        num_inputs, steps, out_slot, out_compl = entry[1]
    else:
        num_inputs, steps, out_slot, out_compl = compile_template(template)
    inputs, out_neg = npn_leaf_assignment(transform, leaf_lits)
    if len(inputs) != num_inputs:
        raise ValueError(
            f"template has {num_inputs} inputs, transform {len(inputs)}"
        )
    lits = [0, *inputs]
    for slot0, compl0, slot1, compl1 in steps:
        lits.append(add_and(lits[slot0] ^ compl0, lits[slot1] ^ compl1))
    root = lits[out_slot] ^ out_compl
    return root ^ 1 if out_neg else root
