"""Scalar reference of the dedup layer (the differential oracle).

This is the per-node formulation the column-native
:func:`repro.algorithms.dedup.dedup_and_dangling` replaced, kept
verbatim in behavior: an alias-chasing ``resolve`` closure, a dict DFS
for the resolved levels, one hash-table insert per level, a scalar
dangling reference count, and the scalar ``add_and`` rebuild of
:meth:`~repro.aig.aig.Aig.compact` through a resolve map.
``tests/test_dedup.py`` and ``tests/test_bulk_construction.py`` compare
the production paths against it.
"""

from __future__ import annotations

from repro import observe
from repro.aig.aig import Aig
from repro.aig.literals import (
    CONST0,
    lit_compl,
    lit_not_cond,
    lit_pair_key,
    lit_var,
)
from repro.parallel.machine import ParallelMachine
from repro.parallel.hashtable import HashTable
from repro.verify import sanitizer
from repro.verify.invariants import check_dedup_complete, check_no_dead_refs


def alias_resolver(alias: dict[int, int]):
    """The alias-chasing literal resolver (no cycle detection)."""

    def resolve(lit: int) -> int:
        while (lit >> 1) in alias:
            lit = lit_not_cond(alias[lit >> 1], lit_compl(lit))
        return lit

    return resolve


def reference_resolved_levels(
    aig: Aig, alias: dict[int, int], resolve
) -> tuple[dict[int, int], list[int]]:
    """Levels (dict) and DFS post-order of the alias-resolved graph."""
    levels: dict[int, int] = {0: 0}
    for var in aig.pis:
        levels[var] = 0
    order: list[int] = []
    for po_lit in aig.pos:
        root = lit_var(resolve(po_lit))
        if root in levels:
            continue
        stack = [root]
        while stack:
            var = stack[-1]
            if var in levels:
                stack.pop()
                continue
            f0, f1 = aig.fanins(var)
            pending = []
            for fanin in (f0, f1):
                fvar = lit_var(resolve(fanin))
                if fvar not in levels:
                    pending.append(fvar)
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            v0 = lit_var(resolve(f0))
            v1 = lit_var(resolve(f1))
            levels[var] = max(levels[v0], levels[v1]) + 1
            order.append(var)
    return levels, order


def reference_dedup(
    aig: Aig,
    alias: dict[int, int],
    machine: ParallelMachine | None = None,
) -> Aig:
    """Scalar ``dedup_and_dangling`` (same records, counters, outputs)."""
    machine = machine if machine is not None else ParallelMachine()
    outer_tag = machine.tag
    machine.set_tag("dedup")
    resolve = alias_resolver(alias)

    with observe.span("dedup", "stage"):
        levels, order = reference_resolved_levels(aig, alias, resolve)
        machine.launch_uniform("dedup.levelize", 1, max(len(order), 1))
        live = [
            var
            for var in order
            if aig.is_and(var) and not aig.is_dead(var) and var not in alias
        ]
        buckets: dict[int, list[int]] = {}
        for var in live:
            buckets.setdefault(levels[var], []).append(var)
        batches = [buckets[level] for level in sorted(buckets)]
        table = HashTable(expected=max(aig.num_ands * 2, 64))
        duplicates = 0
        for batch in batches:
            guard = sanitizer.batch("dedup.level")
            works = [1] * len(batch)
            keys = []
            values = []
            positions = []
            for position, var in enumerate(batch):
                f0, f1 = aig.fanins(var)
                r0 = resolve(f0)
                r1 = resolve(f1)
                if sanitizer.enabled:
                    guard.write(var, (var,))
                    guard.read(var, (lit_var(r0), lit_var(r1)))
                folded = _fold(r0, r1)
                if folded is not None:
                    alias[var] = folded
                    aig.mark_dead(var)
                    continue
                keys.append(lit_pair_key(r0, r1))
                values.append(var)
                positions.append(position)
            winners, probes_list = table.insert_batch(
                [key0 for key0, _ in keys], [key1 for _, key1 in keys], values
            )
            for position, var, winner, probes in zip(
                positions, values, winners.tolist(), probes_list.tolist()
            ):
                works[position] = probes
                if winner != var:
                    alias[var] = winner << 1
                    aig.mark_dead(var)
                    duplicates += 1
            machine.launch("dedup.level", works)
        observe.count("dedup.duplicates", duplicates)

        _remove_dangling(aig, alias, resolve, machine)
        if sanitizer.enabled:
            check_dedup_complete(aig, alias, resolve)
            check_no_dead_refs(aig, alias, resolve)
        result = reference_compact(aig, alias)
        machine.launch_uniform("dedup.compact", 1, max(result.num_ands, 1))
        machine.host("dedup.finalize", result.num_pos)
    machine.set_tag(outer_tag)
    return result


def _fold(r0: int, r1: int) -> int | None:
    key0, key1 = lit_pair_key(r0, r1)
    if key0 == 0 or key0 == (key1 ^ 1):
        return 0
    if key0 == 1:
        return key1
    if key0 == key1:
        return key0
    return None


def _remove_dangling(
    aig: Aig, alias: dict[int, int], resolve, machine: ParallelMachine
) -> None:
    nref = [0] * aig.num_vars
    live = [var for var in aig.and_vars() if var not in alias]
    for var in live:
        for fanin in aig.fanins(var):
            nref[lit_var(resolve(fanin))] += 1
    for po_lit in aig.pos:
        nref[lit_var(resolve(po_lit))] += 1
    machine.launch_uniform("dedup.count_refs", 1, max(len(live), 1))
    roots = [var for var in live if nref[var] == 0]
    works = []
    removed = 0
    for root in roots:
        if aig.is_dead(root):
            continue
        cone = 0
        stack = [root]
        while stack:
            var = stack.pop()
            if aig.is_dead(var):
                continue
            aig.mark_dead(var)
            cone += 1
            for fanin in aig.fanins(var):
                fvar = lit_var(resolve(fanin))
                nref[fvar] -= 1
                if nref[fvar] == 0 and aig.is_and(fvar) and fvar not in alias:
                    stack.append(fvar)
        removed += cone
        works.append(cone)
    observe.count("dedup.dangling_removed", removed)
    if roots:
        machine.launch("dedup.dangling", works)


def reference_compact(aig: Aig, resolve: dict[int, int]) -> Aig:
    """Scalar ``compact(resolve=...)``: chase chains, rebuild by add_and."""
    new = Aig(aig.name, capacity=aig.num_vars)
    memo: dict[int, int] = {0: CONST0}
    for index, var in enumerate(aig.pis):
        memo[var] = new.add_pi(aig.pi_name(index))
    size = aig.num_vars

    def resolve_lit(lit: int) -> int:
        seen = 0
        while True:
            target = resolve.get(lit >> 1)
            if target is None:
                return lit
            lit = target ^ (lit & 1)
            seen += 1
            if seen > size:
                raise ValueError("cycle in resolve map")

    def build(lit: int) -> int:
        lit = resolve_lit(lit)
        root = lit_var(lit)
        if root in memo:
            return lit_not_cond(memo[root], lit_compl(lit))
        stack = [root]
        expanded: set[int] = set()
        while stack:
            var = stack[-1]
            if var in memo:
                stack.pop()
                continue
            f0, f1 = aig.fanins(var)
            f0 = resolve_lit(f0)
            f1 = resolve_lit(f1)
            n0 = memo.get(f0 >> 1)
            n1 = memo.get(f1 >> 1)
            if n0 is None or n1 is None:
                if var in expanded:
                    raise ValueError(
                        f"cycle through variable {var} in resolve map"
                    )
                expanded.add(var)
                if n0 is None:
                    stack.append(f0 >> 1)
                if n1 is None:
                    stack.append(f1 >> 1)
                continue
            stack.pop()
            memo[var] = new.add_and(n0 ^ (f0 & 1), n1 ^ (f1 & 1))
        return lit_not_cond(memo[root], lit_compl(lit))

    for index, po_lit in enumerate(aig.pos):
        new.add_po(build(po_lit), aig.po_name(index))
    return new
