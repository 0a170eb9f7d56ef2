"""Shared infrastructure for the optimization passes.

The in-place passes (refactoring, rewriting) never patch fanin arrays;
they express every cone replacement as an *alias*: the old root
variable redirects to a replacement literal.  :class:`AliasView` makes
an AIG-plus-aliases readable through the ordinary ``fanins``/``is_and``
protocol, so cut computation, truth-table simulation and MFFC
dereferencing all run unchanged on the partially rewritten graph.  The
view holds only the alias map: killed nodes are the graph's own dead
column, and :func:`resolved_fanout_counts` (re-exported from
:mod:`repro.engine.context`) counts references over the resolved live
graph from one :func:`repro.aig.aig.resolve_aliases` array.  The
final :meth:`repro.aig.aig.Aig.compact` call resolves all aliases into
a fresh, dense AIG.

This module also hosts the cone-collection machinery the refactoring
family shares: :class:`ConeJob` (one cone flowing through a
resynthesis pipeline) and :func:`collapse_into_ffcs` (the level-wise
disjoint-FFC partition of the paper's Section III-B, used by ``rf``).
The conflict-breaking pass (:mod:`repro.algorithms.par_refactor_cb`)
reuses :class:`ConeJob` with its own overlapping-cone collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import observe
from repro.aig.aig import Aig
from repro.aig.cuts import CutResult, reconv_cut
from repro.aig.literals import lit_var
from repro.aig.mffc import RefCounts
from repro.engine.context import context_for, resolved_fanout_counts
from repro.logic.resyn import ResynPlan
from repro.parallel.frontier import gather_unique
from repro.parallel.machine import ParallelMachine
from repro.verify import mutations, sanitizer

__all__ = [
    "AliasView",
    "ConeJob",
    "PassResult",
    "RefCounts",
    "collapse_into_ffcs",
    "resolved_fanout_counts",
]


class AliasView:
    """Read-only view of an AIG through an alias (redirection) map.

    Killed nodes are the graph's own dead column
    (:meth:`~repro.aig.aig.Aig.mark_dead`); the view adds only the
    alias map.
    """

    __slots__ = ("aig", "alias")

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self.alias: dict[int, int] = {}

    def resolve(self, lit: int) -> int:
        """Follow alias chains, composing complement flags."""
        alias = self.alias
        while True:
            target = alias.get(lit >> 1)
            if target is None:
                return lit
            lit = target ^ (lit & 1)

    def is_and(self, var: int) -> bool:
        """True when ``var`` is a live (not killed) AND node."""
        aig = self.aig
        return aig.is_and(var) and not aig._deadc.view[var]

    def is_pi(self, var: int) -> bool:
        """True when ``var`` is a primary input."""
        return self.aig.is_pi(var)

    def fanins(self, var: int) -> tuple[int, int]:
        """Alias-resolved fanin literals of a live AND variable."""
        f0, f1 = self.aig.fanins(var)
        alias = self.alias
        if f0 >> 1 in alias:
            f0 = self.resolve(f0)
        if f1 >> 1 in alias:
            f1 = self.resolve(f1)
        return f0, f1

    def set_alias(self, var: int, lit: int) -> None:
        """Redirect ``var`` to ``lit`` (resolved; self-loops rejected)."""
        resolved = self.resolve(lit)
        if (resolved >> 1) == var:
            raise ValueError(f"alias of var {var} resolves to itself")
        self.alias[var] = resolved


@dataclass
class PassResult:
    """Outcome of one optimization pass.

    Attributes
    ----------
    aig:
        The optimized (compacted) AIG.
    nodes_before / nodes_after:
        Live AND counts on entry and exit.
    levels_before / levels_after:
        AIG depth on entry and exit.
    details:
        Pass-specific counters (cones processed, replacements, ...).
    """

    aig: Aig
    nodes_before: int
    nodes_after: int
    levels_before: int
    levels_after: int
    details: dict[str, int] = field(default_factory=dict)

    @property
    def gain(self) -> int:
        """Net AND nodes removed by the pass."""
        return self.nodes_before - self.nodes_after

    def __repr__(self) -> str:
        return (
            f"PassResult(nodes {self.nodes_before}->{self.nodes_after}, "
            f"levels {self.levels_before}->{self.levels_after})"
        )


class ConeJob:
    """One cone flowing through a refactoring pipeline.

    ``deleted`` is the cone-restricted MFFC (the nodes that disappear
    if the cone commits).  ``rf`` leaves it ``None`` — its disjoint
    FFC cones delete their whole member set — while the
    conflict-breaking pass fills it in, since an overlapping cone
    keeps members that retain outside readers.
    """

    __slots__ = ("cut", "plan", "gain", "template", "new_root", "deleted")

    def __init__(self, cut: CutResult) -> None:
        self.cut = cut
        self.plan: ResynPlan | None = None
        self.gain: int | None = None
        self.template: Aig | None = None
        self.new_root: int | None = None
        self.deleted: set[int] | None = None


def collapse_into_ffcs(
    aig: Aig,
    max_cut_size: int,
    machine: ParallelMachine,
    early_stop: bool = True,
) -> list[ConeJob]:
    """Partition the AIG into disjoint FFCs, level-wise from the POs.

    With ``early_stop`` disabled the traversal never stops at the cut
    limit and full MFFCs are produced (used by tests of Property 2).
    Raises ``AssertionError`` if two cones ever overlap — Theorem 1
    says they cannot.
    """
    ffc_cut = _ffc_cutter(
        aig, max_cut_size if early_stop else aig.num_vars + 2
    )
    machine.launch_uniform("rf.fanout_index", 1, max(aig.num_vars, 1))

    owner: dict[int, int] = {}
    frontier, gather_work = gather_unique(
        (lit_var(lit) for lit in aig.pos), keep=aig.is_and
    )
    machine.launch_uniform("rf.init_frontier", 1, max(gather_work, 1))
    enqueued = set(frontier)
    cones: list[ConeJob] = []
    rounds = 0
    # One guard spans the whole collapse: Theorem 1 claims *all* cones
    # of the pass are pairwise disjoint, not just same-level ones, so
    # every cone's member set is one write footprint.  (Leaf reads are
    # synchronized by the replacement protocol's redirect kernel and
    # are deliberately not registered — see docs/VERIFICATION.md.)
    guard = sanitizer.batch("rf.collapse")
    while frontier:
        rounds += 1
        works = []
        candidates: list[int] = []
        for root in frontier:
            cut = ffc_cut(root)
            if mutations.armed and mutations.active("rf-overlap-cones"):
                if owner:
                    cut.cone.add(next(iter(owner)))
            works.append(cut.work)
            if sanitizer.enabled:
                guard.write(root, cut.cone)
            for member in cut.cone:
                previous = owner.get(member)
                if previous is not None:
                    raise AssertionError(
                        f"cone overlap: node {member} claimed by roots "
                        f"{previous} and {root} (violates Theorem 1)"
                    )
                owner[member] = root
            cones.append(ConeJob(cut))
            candidates.extend(cut.leaves)
        machine.launch("rf.collapse", works)
        frontier, gather_work = gather_unique(
            candidates,
            keep=lambda var: aig.is_and(var) and var not in enqueued,
        )
        enqueued.update(frontier)
        machine.launch_uniform(
            "rf.gather_frontier", 1, max(len(candidates), 1)
        )
    if observe.enabled:
        observe.count("rf.rounds", rounds)
        observe.count("kernels.rf_degree_cones", len(cones))
    return cones


def _ffc_cutter(aig: Aig, limit: int):
    """``root -> CutResult``: reconvergence cuts restricted to FFCs.

    A variable may join a cone only when it drives no PO and every one
    of its live-AND readers is already a cone member.  Instead of
    walking a fanout adjacency per candidate, the test counts how many
    of a variable's readers have joined the current cone (``reads``,
    kept by the ``on_expand`` hook of :func:`~repro.aig.cuts.reconv_cut`)
    and compares with its total reader count
    (:meth:`~repro.engine.context.GraphContext.fanout_degrees`); both
    counts deduplicate double edges, so the test is exact.
    """
    context = context_for(aig)
    drives_po = context.po_fanout_mask()
    # Hot path: index via a plain list and the memoryview scalar twins
    # — per-element ndarray indexing would dominate the walk.
    degrees = context.fanout_degrees().tolist()
    fan0_view = aig._f0c.view
    fan1_view = aig._f1c.view
    reads: dict[int, int] = {}

    def expandable(var: int, cone: set[int]) -> bool:
        return not drives_po[var] and reads.get(var, 0) == degrees[var]

    def on_expand(member: int) -> None:
        v0 = fan0_view[member] >> 1
        v1 = fan1_view[member] >> 1
        reads[v0] = reads.get(v0, 0) + 1
        if v1 != v0:
            reads[v1] = reads.get(v1, 0) + 1

    def ffc_cut(root: int) -> CutResult:
        reads.clear()  # read counts are per-cone state
        return reconv_cut(
            aig, root, limit, expandable=expandable, on_expand=on_expand
        )

    return ffc_cut
