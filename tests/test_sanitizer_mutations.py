"""Mutation self-test: every seeded bug must be caught.

Each entry of :data:`repro.verify.mutations.MUTATIONS` arms one
deliberate bug inside a parallel pass; this module runs the pass under
the verification harness and asserts the *registered* detector layer
flags it:

* ``sanitizer``  -> a raise-mode :class:`Sanitizer` raises
  :class:`RaceConflictError` at the offending footprint registration;
* ``invariant``  -> the in-pass / post-pass structural audits raise
  :class:`AigInvariantError`;
* ``cec``        -> the pass completes but combinational equivalence
  checking refutes the result.

If a refactor ever silences one of these detections, the corresponding
test fails — the harness itself is under test here.
"""

from __future__ import annotations

import pytest

from repro.algorithms.par_balance import par_balance
from repro.algorithms.par_refactor import par_refactor
from repro.algorithms.par_refactor_cb import par_refactor_cb
from repro.algorithms.par_rewrite import par_rewrite
from repro.algorithms.seq_refactor import seq_refactor
from repro.algorithms.seq_rewrite import seq_rewrite
from repro.benchgen.random_aig import mtm_random
from repro.cec.equivalence import CecStatus, check_equivalence
from repro.verify import mutations, sanitizer
from repro.verify.invariants import AigInvariantError
from repro.verify.sanitizer import RaceConflictError, Sanitizer
from tests.conftest import assert_equivalent

#: mutation name -> the pass that hosts the mutation site.
PASS_FOR = {
    "rf-overlap-cones": par_refactor,
    "rf-flip-root": par_refactor,
    "rfc-drop-conflict": par_refactor_cb,
    "rfc-stale-fanin": par_refactor_cb,
    "b-flip-input": par_balance,
    "b-overlap-clusters": par_balance,
    "rw-flip-root": par_rewrite,
    "dedup-stale-level": par_rewrite,
    "dedup-skip-merge": par_rewrite,
    "dedup-free-live": par_rewrite,
    "commit-cross-write": par_refactor,
    "commit-replay-flip-root": par_rewrite,
}


def seeded_victim():
    """The AIG every mutation runs on; rich enough that every pass
    finds real replacement opportunities (a mutation that never fires
    would vacuously 'pass')."""
    return mtm_random(num_pis=10, num_nodes=150, num_pos=6, seed=5)


@pytest.fixture(autouse=True)
def _clean_harness():
    """No armed mutation or installed sanitizer may leak across tests."""
    yield
    mutations.disarm()
    sanitizer.set_sanitizer(None)


def test_registry_covers_at_least_six_mutations():
    assert len(mutations.MUTATIONS) >= 6
    assert set(PASS_FOR) == set(mutations.MUTATIONS)


@pytest.mark.parametrize(
    "name",
    [n for n, (d, _) in mutations.MUTATIONS.items() if d == "sanitizer"],
)
def test_sanitizer_catches(name):
    run_pass = PASS_FOR[name]
    sanitizer.set_sanitizer(Sanitizer(on_conflict="raise"))
    mutations.arm(name)
    with pytest.raises(RaceConflictError):
        run_pass(seeded_victim())


@pytest.mark.parametrize(
    "name",
    [n for n, (d, _) in mutations.MUTATIONS.items() if d == "invariant"],
)
def test_invariant_checker_catches(name):
    run_pass = PASS_FOR[name]
    # Record mode: the race guards stay quiet, proving it is the
    # structural audit (not the sanitizer) that flags this bug.
    san = Sanitizer(on_conflict="record")
    sanitizer.set_sanitizer(san)
    mutations.arm(name)
    with pytest.raises(AigInvariantError):
        run_pass(seeded_victim())
    assert san.num_conflicts == 0


@pytest.mark.parametrize(
    "name",
    [n for n, (d, _) in mutations.MUTATIONS.items() if d == "cec"],
)
def test_cec_gate_catches(name):
    run_pass = PASS_FOR[name]
    aig = seeded_victim()
    mutations.arm(name)
    result = run_pass(aig)
    verdict = check_equivalence(aig, result.aig)
    assert verdict.status is CecStatus.NOT_EQUIVALENT


@pytest.mark.parametrize("run_pass", [seq_rewrite, seq_refactor])
def test_cec_gate_catches_replay_flip_in_apply_replacement(run_pass):
    """``commit-replay-flip-root`` has a second site: the scalar
    transaction ``apply_replacement``, which the sequential passes and
    ``rfc``'s serial lane replay through (``par_rewrite`` reaches only
    the fused loop's site)."""
    aig = seeded_victim()
    mutations.arm("commit-replay-flip-root")
    result = run_pass(aig)
    verdict = check_equivalence(aig, result.aig)
    assert verdict.status is CecStatus.NOT_EQUIVALENT


@pytest.mark.parametrize("name", sorted(mutations.MUTATIONS))
def test_disarmed_runs_stay_clean(name):
    """Disarmed sites are inert: same pass, same input, no detection."""
    run_pass = PASS_FOR[name]
    aig = seeded_victim()
    san = Sanitizer(on_conflict="raise")
    sanitizer.set_sanitizer(san)
    result = run_pass(aig)
    sanitizer.set_sanitizer(None)
    assert san.num_conflicts == 0
    assert_equivalent(aig, result.aig)


def test_arm_rejects_unknown_name():
    with pytest.raises(ValueError):
        mutations.arm("no-such-mutation")
    assert not mutations.armed


def test_arm_disarm_lifecycle():
    assert mutations.current() is None
    mutations.arm("rf-flip-root")
    assert mutations.armed
    assert mutations.current() == "rf-flip-root"
    assert mutations.active("rf-flip-root")
    assert not mutations.active("b-flip-input")
    mutations.disarm()
    assert not mutations.armed
    assert mutations.current() is None
