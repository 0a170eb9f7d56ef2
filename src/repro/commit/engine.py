"""Bulk commit engine: resolve, order and land RewritePlans.

The parallel half of the transactional layer (Figure 1d–1e of the
paper).  A pass hands the engine a list of
:class:`~repro.commit.plan.RewritePlan`\\ s; the engine

1. **resolves** them — rank by (gain desc, root asc), a total order,
   and greedily admit a plan into the wave unless its write footprint
   collides with an admitted commit (write-write, or write-read in
   either direction) — the conflict-breaking resolver generalized from
   the ``rfc`` pass;
2. **commits the wave** — register every plan's sanitizer footprint,
   delete the retired cones, seed the survivor hash table, insert the
   templates one node per plan per synchronized round through the
   shared table, and redirect the old roots.

Node allocation funnels through an :class:`InsertionSession`: the
misses of every table batch (a vector chunk, a whole batch below the
table's size gate, or the one item of a growth replay) go through the
batch constructor in one call, counted as ``commit.bulk_nodes``.
"""

from __future__ import annotations

import random
from typing import Callable

from repro import observe
from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_not_cond, lit_var, make_lit
from repro.commit.plan import RewritePlan
from repro.parallel.hashtable import HashTable
from repro.parallel.machine import ParallelMachine
from repro.verify import mutations, sanitizer

__all__ = [
    "CommitEngine",
    "InsertionSession",
    "insert_cone_templates",
    "seed_survivor_table",
]

#: ``account(name, works)`` — how a stage charges its work units.
Account = Callable[[str, list[int]], None]


def seed_survivor_table(
    aig: Aig, machine: ParallelMachine, launch_name: str
) -> HashTable:
    """Hash table seeded with every live AND node of ``aig``.

    Dead (replaced) nodes must already be marked; the sweep visits the
    survivors in ascending id order, so the table layout — and
    therefore every downstream probe count — is deterministic.
    """
    table = HashTable(expected=max(aig.num_ands * 2, 64))
    survivors = aig.live_and_array()
    fan0, fan1, _ = aig.arrays()
    seed_works = table.seed_batch(
        fan0[survivors], fan1[survivors], survivors
    )
    machine.launch(launch_name, seed_works.tolist() or [0])
    return table


class InsertionSession:
    """Counted node allocation into one graph through one hash table.

    The table knows keys, slots and probes; the session adds what it
    cannot know: the graph the new nodes land in, and the layer's
    ``commit.bulk_nodes`` count of nodes created through the batch
    constructor.
    """

    __slots__ = ("aig", "table")

    def __init__(
        self,
        aig: Aig,
        expected: int | None = None,
        table: HashTable | None = None,
    ) -> None:
        self.aig = aig
        if table is None:
            table = HashTable(
                expected=expected if expected is not None else 64
            )
        self.table = table

    def insert_round(self, lits0, lits1):
        """One synchronized batched get-or-create round over two
        literal columns; returns ``(literals, probes)`` int64 arrays."""
        return self.table.get_or_create(lits0, lits1, self._alloc)

    def _alloc(self, key0, key1):
        # The table hands over plain lists (below its gate, and for
        # one-item growth replays) or column arrays (vector chunks) and
        # reads back var ids in the same form.
        if observe.enabled:
            observe.count("commit.bulk_nodes", len(key0))
        created = self.aig.add_raw_and_batch(key0, key1)
        if type(created) is list:
            return [lit >> 1 for lit in created]
        return created >> 1


def insert_cone_templates(
    aig: Aig,
    table: HashTable,
    states: list[tuple[Aig, dict[int, int], list[int]]],
    machine: ParallelMachine,
    launch_name: str,
    mutation_site: str | None = None,
    account: Account | None = None,
) -> int:
    """Insert every cone's template, one node per cone per round.

    ``states`` holds ``(template, lit_map, order)`` per cone: the
    template AIG over symbolic leaves, the template-var -> graph-literal
    map pre-seeded with the leaf bindings, and the template's AND
    variables in topological (id) order.  Each round batches one node
    from every still-active cone through
    :meth:`~repro.parallel.hashtable.HashTable.get_or_create`;
    fanin literals only reference earlier rounds, so the whole round is
    one synchronized table operation.  ``lit_map`` entries are filled in
    place; returns the number of insertion rounds.

    ``mutation_site`` names an optional seeded-bug hook: when that
    mutation is armed, the first inserted node's first fanin literal is
    complemented — a commit writing a stale fanin, which the CEC gate
    must refute (see :mod:`repro.verify.mutations`).  ``account``
    overrides how round works are charged (``machine.launch`` by
    default; the sequential replace mode charges the host instead).
    """
    session = InsertionSession(aig, table=table)
    if account is None:
        account = machine.launch

    corrupt = (
        mutation_site is not None
        and mutations.armed
        and mutations.active(mutation_site)
    )
    round_index = 0
    while True:
        lits0 = []
        lits1 = []
        active = []
        for template, lit_map, order in states:
            if round_index >= len(order):
                continue
            t_var = order[round_index]
            f0, f1 = template.fanins(t_var)
            n0 = lit_not_cond(lit_map[lit_var(f0)], lit_compl(f0))
            n1 = lit_not_cond(lit_map[lit_var(f1)], lit_compl(f1))
            if corrupt and round_index == 0 and not lits0:
                n0 ^= 1  # stale fanin: wrong polarity read of the leaf
            lits0.append(n0)
            lits1.append(n1)
            active.append((lit_map, t_var))
        if not lits0:
            break
        literals, probes = session.insert_round(lits0, lits1)
        for (lit_map, t_var), literal in zip(active, literals.tolist()):
            lit_map[t_var] = literal
        account(launch_name, (probes + 1).tolist())
        round_index += 1
    return round_index


class CommitEngine:
    """Validate, order and apply RewritePlans on one live graph.

    ``prefix`` namespaces the machine launches and stage counters
    (``{prefix}.delete_old``, ``{prefix}.seed_table``,
    ``{prefix}.insertion_round``, ``{prefix}.redirect_roots``,
    ``{prefix}.resolve``, ``{prefix}.insertion_rounds``) so each pass's
    pinned machine trace is preserved verbatim.

    ``account`` overrides how the delete/insert/redirect stages charge
    work (``rf``'s sequential replace mode charges the host);
    the survivor-table seed always launches on the machine — what [9]
    serializes is the replacement decision, not the table build.
    ``pad_delete`` keeps the historical per-pass quirk of padding an
    empty delete stage with one zero-work lane.  ``insert_mutation``
    and ``root_flip_mutation`` name the pass's seeded commit bugs; the
    engine's own ``commit-cross-write`` mutation mis-registers the
    first plan's write footprint under the second plan's sanitizer
    lane, which the race sanitizer must flag.
    """

    def __init__(
        self,
        aig: Aig,
        machine: ParallelMachine,
        prefix: str,
        *,
        account: Account | None = None,
        insert_mutation: str | None = None,
        root_flip_mutation: str | None = None,
        pad_delete: bool = True,
    ) -> None:
        self.aig = aig
        self.machine = machine
        self.prefix = prefix
        self.account: Account = (
            account if account is not None else machine.launch
        )
        self.insert_mutation = insert_mutation
        self.root_flip_mutation = root_flip_mutation
        self.pad_delete = pad_delete

    # ------------------------------------------------------------------
    # Conflict resolution
    # ------------------------------------------------------------------

    def resolve(
        self,
        plans: list[RewritePlan],
        permutation_seed: int | None = None,
        drop_mutation: str | None = None,
    ) -> tuple[list[RewritePlan], list[RewritePlan]]:
        """Split plans into a parallel wave and a deferred remainder.

        Plans are ranked by (gain desc, root var asc) — roots are
        unique, so the order is total and the split is independent of
        the input order (``permutation_seed`` shuffles first as a test
        hook to assert exactly that).  A plan joins the wave unless it
        conflicts with an admitted commit: write-write (deleted sets
        overlap) or write-read in either direction (it deletes what the
        wave reads, or reads what the wave deletes).  Deferred plans
        are the broken conflicts, counted as ``commit.conflicts``.
        """
        ordered = list(plans)
        if permutation_seed is not None:
            random.Random(permutation_seed).shuffle(ordered)
        ordered.sort(key=lambda plan: (-plan.gain, plan.root))
        wave: list[RewritePlan] = []
        deferred: list[RewritePlan] = []
        wave_deleted: set[int] = set()
        wave_read: set[int] = set()
        drop_edges = (
            drop_mutation is not None
            and mutations.armed
            and mutations.active(drop_mutation)
        )
        for plan in ordered:
            deleted = plan.footprint.writes
            reads = plan.footprint.reads
            reads = reads if reads is not None else ()
            conflict = not (
                wave_deleted.isdisjoint(deleted)
                and wave_read.isdisjoint(deleted)
                and wave_deleted.isdisjoint(reads)
            )
            if drop_edges:
                conflict = False  # seeded bug: conflict edges ignored
            if conflict:
                deferred.append(plan)
            else:
                wave.append(plan)
                wave_deleted.update(deleted)
                wave_read.update(reads)
        # One thread per plan checks its footprints against the wave
        # prefix (stream compaction over the ranked order).
        self.machine.launch_uniform(
            f"{self.prefix}.resolve", 1, max(len(ordered), 1)
        )
        observe.count("commit.conflicts", len(deferred))
        return wave, deferred

    # ------------------------------------------------------------------
    # Wave commit
    # ------------------------------------------------------------------

    def commit_wave(self, plans: list[RewritePlan]) -> dict[int, int]:
        """Land the plans in parallel; returns the alias map.

        Delete the retired cones (one lane per plan; footprints
        registered on the sanitizer batch guard exactly as declared),
        seed the survivor hash table, insert the templates one node per
        plan per synchronized round, and redirect every old root to its
        new root literal (recorded on ``plan.new_root``).
        """
        aig = self.aig
        machine = self.machine
        prefix = self.prefix
        guard = sanitizer.batch(f"{prefix}.replace")
        cross_write = mutations.armed and mutations.active(
            "commit-cross-write"
        )
        delete_works = []
        retired: set[int] = set()
        for index, plan in enumerate(plans):
            if sanitizer.enabled:
                plan.footprint.register(guard, plan.root)
                if cross_write and index == 1:
                    # Seeded bug: the engine mis-attributes the first
                    # plan's write set to this plan's lane — two lanes
                    # now claim the same writes, a race the sanitizer
                    # must flag.
                    plans[0].footprint.register(guard, plan.root)
            retired.update(plan.footprint.writes)
            delete_works.append(len(plan.footprint.writes))
        self.account(
            f"{prefix}.delete_old",
            (delete_works or [0]) if self.pad_delete else delete_works,
        )
        aig.mark_dead_batch(list(retired))

        # Seed the hash table with every surviving AND node.  This is a
        # parallel kernel in both replace modes — what [9] serializes
        # is the replacement decision, not the table build.
        table = seed_survivor_table(aig, machine, f"{prefix}.seed_table")

        # Insert the new cones: one node per plan per synchronized
        # round.  Template PIs map to the plan's (sorted) leaves in the
        # original id space.
        states = []
        for plan in plans:
            template = plan.template
            leaf_lits = [make_lit(var) for var in plan.leaves]
            lit_map: dict[int, int] = {0: 0}
            for t_var, lit in zip(template.pis, leaf_lits):
                lit_map[t_var] = lit
            states.append((template, lit_map, list(template.and_vars())))
        rounds = insert_cone_templates(
            aig,
            table,
            states,
            machine,
            f"{prefix}.insertion_round",
            mutation_site=self.insert_mutation,
            account=self.account,
        )
        observe.count(f"{prefix}.insertion_rounds", rounds)

        # Redirect old roots to new roots.
        flip = (
            self.root_flip_mutation is not None
            and mutations.armed
            and mutations.active(self.root_flip_mutation)
        )
        alias: dict[int, int] = {}
        for plan, (template, lit_map, _) in zip(plans, states):
            po_lit = template.pos[0]
            new_root = lit_not_cond(
                lit_map[lit_var(po_lit)], lit_compl(po_lit)
            )
            if flip:
                new_root ^= 1
            plan.new_root = new_root
            if (new_root >> 1) != plan.root:
                alias[plan.root] = new_root
        self.account(f"{prefix}.redirect_roots", [1] * max(len(plans), 1))
        observe.count("commit.plans", len(plans))
        return alias
