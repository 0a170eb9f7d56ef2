"""Unit tests for the verification layer (repro.verify).

Covers the sanitizer's footprint semantics, the invariant checkers on
clean and hand-corrupted graphs, and the fuzz harness plumbing.  The
end-to-end mutation detections live in
``tests/test_sanitizer_mutations.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import observe
from repro.aig.aig import Aig
from repro.benchgen.random_aig import mtm_random
from repro.verify import GATES, invariants, sanitizer
from repro.verify.invariants import (
    InvariantError,
    check_dedup_complete,
    check_invariants,
    check_no_dead_refs,
)
from repro.verify.sanitizer import (
    NULL_GUARD,
    RaceConflictError,
    Sanitizer,
)
from tests.conftest import build_random_aig


@pytest.fixture(autouse=True)
def _no_leaked_sanitizer():
    yield
    sanitizer.set_sanitizer(None)


# ----------------------------------------------------------------------
# BatchGuard footprint semantics
# ----------------------------------------------------------------------


def test_write_write_conflict_raises():
    guard = Sanitizer().batch("unit")
    guard.write(0, [5, 6])
    with pytest.raises(RaceConflictError, match="write-write"):
        guard.write(1, [6])


def test_write_then_read_conflict_raises():
    guard = Sanitizer().batch("unit")
    guard.write(0, [7])
    with pytest.raises(RaceConflictError, match="write-read"):
        guard.read(1, [7])


def test_read_then_write_conflict_raises():
    guard = Sanitizer().batch("unit")
    guard.read(0, [7])
    with pytest.raises(RaceConflictError, match="write-read"):
        guard.write(1, [7])


def test_same_lane_never_conflicts_with_itself():
    san = Sanitizer()
    guard = san.batch("unit")
    guard.write(3, [1, 2])
    guard.read(3, [1, 2])
    guard.write(3, [2])
    assert san.num_conflicts == 0


def test_shared_reads_are_allowed():
    san = Sanitizer()
    guard = san.batch("unit")
    guard.read(0, [9])
    guard.read(1, [9])
    guard.read(2, [9])
    assert san.num_conflicts == 0


def test_multi_reader_node_still_conflicts_with_writer():
    # After two lanes read a node, a write by *either* of them must
    # conflict — the guard may not forget the other reader.
    guard = Sanitizer().batch("unit")
    guard.read(0, [9])
    guard.read(1, [9])
    with pytest.raises(RaceConflictError, match="<multiple>"):
        guard.write(0, [9])


def test_record_mode_collects_every_conflict():
    san = Sanitizer(on_conflict="record")
    guard = san.batch("unit")
    guard.write(0, [1, 2, 3])
    guard.write(1, [2, 3])
    assert san.num_conflicts == 2
    assert len(san.conflicts) == 2
    assert {c.kind for c in san.conflicts} == {"write-write"}
    assert all(c.batch == "unit" for c in san.conflicts)
    text = str(san.conflicts[0])
    assert "node 2" in text and "lanes 0 and 1" in text


def test_counters_track_footprint_sizes():
    san = Sanitizer()
    guard = san.batch("unit")
    guard.write(0, [1, 2])
    guard.read(1, [3])
    san.on_launch("kernel", 4, 40)
    san.on_evictions(2)
    summary = san.summary()
    assert summary["batches"] == 1
    assert summary["writes"] == 2
    assert summary["reads"] == 1
    assert summary["launches"] == 1
    assert summary["launch_items"] == 4
    assert summary["launch_work"] == 40
    assert summary["vec_eviction_rounds"] == 2


def test_table_batch_counts_contention_not_races():
    san = Sanitizer()
    san.on_table_batch("seed", [(1, 2), (3, 4), (1, 2), (1, 2)])
    summary = san.summary()
    assert summary["table_batches"] == 1
    assert summary["table_items"] == 4
    assert summary["table_contended"] == 2
    assert san.num_conflicts == 0


def test_invalid_on_conflict_rejected():
    with pytest.raises(ValueError):
        Sanitizer(on_conflict="ignore")


def test_module_switchboard_lifecycle():
    assert not sanitizer.enabled
    assert sanitizer.current() is None
    assert sanitizer.batch("any") is NULL_GUARD
    san = Sanitizer()
    sanitizer.set_sanitizer(san)
    assert sanitizer.enabled
    assert sanitizer.current() is san
    assert sanitizer.batch("any") is not NULL_GUARD
    sanitizer.set_sanitizer(None)
    assert not sanitizer.enabled
    assert sanitizer.current() is None


def test_null_guard_is_inert():
    NULL_GUARD.write(0, [1, 2])
    NULL_GUARD.read(1, [1, 2])


def test_env_variable_installs_sanitizer():
    env = dict(os.environ, REPRO_SANITIZE="1")
    env["PYTHONPATH"] = "src"
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.verify import sanitizer; "
            "print(sanitizer.enabled, sanitizer.current() is not None)",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.split() == ["True", "True"]


def test_counters_mirror_into_observe_registry():
    observe.enable()
    try:
        san = Sanitizer()
        sanitizer.set_sanitizer(san)
        guard = san.batch("unit")
        guard.write(0, [1])
    finally:
        sanitizer.set_sanitizer(None)
        _, registry = observe.disable()
    assert registry.counters["sanitizer.batches"] == 1
    assert registry.counters["sanitizer.writes"] == 1


# ----------------------------------------------------------------------
# Invariant checkers
# ----------------------------------------------------------------------


def test_check_invariants_clean_graph():
    aig = build_random_aig(4, num_ands=80)
    stats = check_invariants(aig, require_reachable=True)
    assert stats["ands"] == aig.num_ands
    assert stats["depth"] > 0
    assert stats["unreachable"] == 0


def test_check_invariants_flags_unreachable():
    aig = Aig("dangling")
    a = aig.add_pi()
    b = aig.add_pi()
    aig.add_po(aig.add_and(a, b))
    aig.add_and(a, b ^ 1)  # live but feeds nothing
    stats = check_invariants(aig)
    assert stats["unreachable"] == 1
    with pytest.raises(InvariantError, match="unreachable"):
        check_invariants(aig, require_reachable=True)


def test_acyclic_dfs_handles_diamonds():
    # Two paths re-converge: the DFS must not mistake the second visit
    # of the shared node for a back edge.
    aig = Aig("diamond")
    a = aig.add_pi()
    b = aig.add_pi()
    shared = aig.add_and(a, b)
    left = aig.add_and(shared, a ^ 1)
    right = aig.add_and(shared, b ^ 1)
    aig.add_po(aig.add_and(left ^ 1, right ^ 1))
    levels = invariants._check_acyclic_levels(aig)
    assert levels[shared >> 1] == 1


def test_acyclic_dfs_detects_cycle():
    aig = Aig("cyclic")
    a = aig.add_pi()
    b = aig.add_pi()
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(n1, a ^ 1)
    aig.add_po(n2)
    # Corrupt the graph: n1 now reads n2, closing a cycle.  This also
    # breaks the id-order convention, which is the point — the DFS
    # must catch it without relying on that convention.
    aig._fanin0[n1 >> 1] = n2
    with pytest.raises(InvariantError, match="cycle"):
        invariants._check_acyclic_levels(aig)


def test_check_dedup_complete_accepts_clean_alias():
    aig = Aig("ok")
    a = aig.add_pi()
    b = aig.add_pi()
    aig.add_po(aig.add_and(a, b))
    check_dedup_complete(aig, {}, invariants._resolve_with({}))


def test_check_dedup_complete_flags_shared_key():
    aig = Aig("dups")
    a = aig.add_pi()
    b = aig.add_pi()
    c = aig.add_pi()
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(a, c)
    aig.add_po(n1)
    aig.add_po(n2)
    # Aliasing c -> b makes n2 a resolved duplicate of n1 that the
    # (hypothetically buggy) dedup failed to redirect.
    alias = {c >> 1: b}
    with pytest.raises(InvariantError, match="share resolved key"):
        check_dedup_complete(aig, alias, invariants._resolve_with(alias))


def test_check_dedup_complete_flags_foldable_node():
    aig = Aig("fold")
    a = aig.add_pi()
    b = aig.add_pi()
    aig.add_po(aig.add_and(a, b))
    # Aliasing b -> const1 leaves AND(a, 1), which dedup must fold.
    alias = {b >> 1: 1}
    with pytest.raises(InvariantError, match="foldable"):
        check_dedup_complete(aig, alias, invariants._resolve_with(alias))


def test_check_no_dead_refs_flags_dead_fanin():
    aig = Aig("deadref")
    a = aig.add_pi()
    b = aig.add_pi()
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(n1, a ^ 1)
    aig.add_po(n2)
    aig.mark_dead(n1 >> 1)  # freed despite live fanout, no alias
    with pytest.raises(InvariantError, match="dead node"):
        check_no_dead_refs(aig, {}, invariants._resolve_with({}))


def test_check_no_dead_refs_flags_dead_po():
    aig = Aig("deadpo")
    a = aig.add_pi()
    b = aig.add_pi()
    n1 = aig.add_and(a, b)
    aig.add_po(n1)
    aig.mark_dead(n1 >> 1)
    with pytest.raises(InvariantError, match="PO 0"):
        check_no_dead_refs(aig, {}, invariants._resolve_with({}))


def test_resolve_with_chases_chains():
    # var3 -> lit4 (var2, positive), var2 -> lit8 (var4, positive).
    resolve = invariants._resolve_with({3: 4, 2: 8})
    assert resolve(6) == 8       # two hops
    assert resolve(7) == 9       # complement carried through
    assert resolve(4) == 8       # one hop
    assert resolve(10) == 10     # unaliased endpoint


# ----------------------------------------------------------------------
# Fuzz harness plumbing
# ----------------------------------------------------------------------


def test_run_case_clean():
    from repro.verify.fuzz import run_case

    aig = mtm_random(num_pis=8, num_nodes=60, num_pos=3, seed=17)
    outcome = run_case(aig, "b; rw", gates=0)
    assert outcome.ok
    assert outcome.gates == "0"
    assert outcome.conflicts == 0
    assert outcome.error is None
    assert outcome.cec == "equivalent"
    assert outcome.dump is not None
    assert outcome.counters["batches"] > 0


def test_run_case_restores_gates_and_sanitizer():
    import importlib

    from repro.verify.fuzz import run_case

    def gate_values():
        return [
            getattr(importlib.import_module(module), attr)
            for module, attr in GATES
        ]

    previous = gate_values()
    aig = mtm_random(num_pis=6, num_nodes=40, num_pos=2, seed=18)
    run_case(aig, "b", gates=0)
    assert gate_values() == previous
    assert sanitizer.current() is None


def test_run_case_captures_invariant_failures():
    from repro.verify import mutations
    from repro.verify.fuzz import run_case

    aig = mtm_random(num_pis=10, num_nodes=150, num_pos=6, seed=5)
    mutations.arm("dedup-skip-merge")
    try:
        outcome = run_case(aig, "rw")
    finally:
        mutations.disarm()
    assert not outcome.ok
    assert outcome.error_kind == "invariant"
    assert outcome.error is not None


def test_run_fuzz_small_budget_clean():
    from repro.verify.fuzz import run_fuzz

    report = run_fuzz(seed=7, budget=3)
    assert report.ok
    assert report.cases == 3
    # Each case runs sanitizer off + on per gate mode (default, 0).
    assert report.runs == 12
    text = report.format()
    assert "verdict: CLEAN" in text
    assert "seed=7" in text
    assert "gates=default,0" in text


def test_run_fuzz_is_reproducible():
    from repro.verify.fuzz import run_fuzz

    first = run_fuzz(seed=11, budget=2)
    second = run_fuzz(seed=11, budget=2)
    assert first.ok and second.ok
    assert first.format() == second.format()
