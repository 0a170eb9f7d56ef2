"""Column-native pass kernels against their per-node oracles.

The kernels in :mod:`repro.algorithms.kernels` are the only production
path of the balance/refactor/rewrite inner loops; the per-node loops
they replaced live in ``tests/pass_reference.py``.  This file runs
whole scripts once on the kernels and once with every kernel site
swapped for its oracle (:func:`tests.pass_reference.oracle_paths`), and
asserts the two agree on everything observable — serialized AIGs,
modeled times, machine records and every counter outside the
kernel-only ``kernels.*`` namespace — plus direct unit differentials
for each kernel primitive, the sanitizer and the Property 3 knob.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.cuts import reconv_cut
from repro.aig.io_aiger import dump_aag
from repro.aig.traversal import fanout_counts
from repro.algorithms import common, kernels
from repro.commit import deref_cone, ref_cone_back
from repro.algorithms.par_balance import par_balance
from repro.engine import run_script
from repro.engine.context import context_for
from repro.parallel.machine import ParallelMachine
from repro.verify import sanitizer
from repro.verify.sanitizer import Sanitizer
from tests.conftest import build_random_aig
from tests.graph_reference import fanout_lists
from tests.pass_reference import (
    oracle_paths,
    reference_deleted_sets,
    reference_ffc_cutter,
    reference_levelize_collapsed,
    reference_par_balance,
    reference_survivor_keys,
)

aig_seeds = st.integers(min_value=0, max_value=50_000)
aig_sizes = st.integers(min_value=10, max_value=150)

SCRIPTS = ("b", "rf", "rw", "rfc")


def _parity_tuple(run) -> tuple:
    """Dump, counters, machine records and modeled time of ``run``."""
    observe.enable()
    machine = ParallelMachine()
    try:
        result = run(machine)
    finally:
        _, registry = observe.disable()
    # ``kernels.*``, the commit layer's bulk/serial throughput split
    # and the gate sites' ``path.*`` tallies are wall-clock
    # bookkeeping; all legitimately differ between the column kernels
    # and the per-node oracles (a kernel hands a level's first pass to
    # the table as one batch where its oracle makes smaller ones).
    counters = {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if not key.startswith(("kernels.", "commit.", "path."))
    }
    records = [
        (type(record).__name__, vars(record))
        for record in machine.records
    ]
    return dump_aag(result.aig), counters, records, machine.total_time()


def _run(aig, script: str, oracle: bool):
    """Run ``script`` on the kernels or on the oracles; parity tuple."""

    def run(machine):
        if not oracle:
            return run_script(aig, script, engine="gpu", machine=machine)
        with oracle_paths():
            return run_script(aig, script, engine="gpu", machine=machine)

    return _parity_tuple(run)


def _assert_parity(kernel: tuple, oracle: tuple) -> None:
    assert kernel[0] == oracle[0], "serialized AIGs differ"
    assert kernel[1] == oracle[1], "counters differ"
    assert kernel[2] == oracle[2], "machine records differ"
    assert kernel[3] == oracle[3], "modeled times differ"


def _assert_kernel_parity(make_aig, script: str) -> None:
    _assert_parity(
        _run(make_aig(), script, oracle=False),
        _run(make_aig(), script, oracle=True),
    )


# ----------------------------------------------------------------------
# Kernel-vs-oracle script parity (hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
@pytest.mark.parametrize("script", SCRIPTS)
def test_kernel_parity_random(script, seed, size):
    _assert_kernel_parity(
        lambda: build_random_aig(seed, num_ands=size), script
    )


@pytest.mark.parametrize("script", SCRIPTS + ("resyn2", "rfc_resyn"))
def test_kernel_parity_deep(script):
    # Deeper/narrower shape than the default random graphs.
    _assert_kernel_parity(
        lambda: build_random_aig(11, num_pis=4, num_ands=200, locality=6),
        script,
    )


def test_oracle_paths_swap_and_restore():
    from tests.pass_reference import ORACLES

    originals = [getattr(module, name) for module, name, _ in ORACLES]
    with pytest.raises(RuntimeError):
        with oracle_paths():
            assert [
                getattr(module, name) for module, name, _ in ORACLES
            ] == [reference for _, _, reference in ORACLES]
            raise RuntimeError("restore on error")
    assert [getattr(module, name) for module, name, _ in ORACLES] == (
        originals
    )


# ----------------------------------------------------------------------
# Verification hooks on the kernel path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("script", SCRIPTS + ("resyn2",))
def test_sanitizer_runs_kernel_path(script):
    # The sanitizer is transparent on the kernels: no conflict, and the
    # same AIG as an unsanitized kernel run and as the oracles.
    plain = _run(build_random_aig(5), script, oracle=False)[0]
    san = Sanitizer(on_conflict="record")
    sanitizer.set_sanitizer(san)
    try:
        result = run_script(build_random_aig(5), script, engine="gpu")
    finally:
        sanitizer.set_sanitizer(None)
    assert san.num_conflicts == 0
    assert san.counters["writes"] > 0
    assert dump_aag(result.aig) == plain
    assert plain == _run(build_random_aig(5), script, oracle=True)[0]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_shuffled_balance_matches_oracle(seed):
    # The Property 3 knob shuffles each level the same way on both
    # paths (the shuffle consumes the rng by level size only).
    def shuffled(balance):
        return lambda machine: balance(
            build_random_aig(11, num_ands=120),
            machine=machine,
            order_rng=random.Random(seed),
        )

    _assert_parity(
        _parity_tuple(shuffled(par_balance)),
        _parity_tuple(shuffled(reference_par_balance)),
    )


# ----------------------------------------------------------------------
# Kernel primitives against their scalar references
# ----------------------------------------------------------------------


def _drop_cluster(plan, index: int):
    """``plan`` without cluster ``index``: its root defines nothing."""
    keep = np.ones(plan.num_roots, dtype=bool)
    keep[index] = False
    counts = plan.counts[keep]
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(counts)
    inputs = plan.inputs[np.repeat(keep, plan.counts)]
    return kernels.BalancePlan(plan.roots[keep], counts, offsets, inputs)


def _levelize_outcome(levelize, aig, plan):
    try:
        return levelize(aig, plan).tolist()
    except KeyError as error:
        return ("KeyError", error.args)


@settings(max_examples=40, deadline=None)
@given(
    seed=aig_seeds,
    size=aig_sizes,
    drop=st.none() | st.integers(min_value=0, max_value=10**6),
    retarget=st.none()
    | st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
)
@example(seed=0, size=60, drop=None, retarget=None)
@example(seed=1, size=120, drop=10**6, retarget=None)
@example(seed=2, size=80, drop=None, retarget=(0, 10**6))
def test_levelize_matches_pull_oracle(seed, size, drop, retarget):
    """The wavefront levelize equals the pull fixpoint, including the
    ``KeyError`` for a dropped root or an input retargeted to any
    variable (an internal AND, a cycle, a constant or a PI)."""
    aig = build_random_aig(seed, num_ands=size, locality=8)
    plan = kernels.balance_collapse(aig, ParallelMachine())
    if retarget is not None:
        position, var = retarget
        plan.inputs[position % plan.inputs.shape[0]] = 2 * (
            var % aig.num_vars
        )
    if drop is not None:
        # The last-discovered root sits nearest the PIs: dropping it
        # strands the clusters above it.
        plan = _drop_cluster(plan, plan.num_roots - 1 - drop % plan.num_roots)
    assert _levelize_outcome(
        kernels._levelize_collapsed, aig, plan
    ) == _levelize_outcome(reference_levelize_collapsed, aig, plan)


def test_levelize_reports_first_stranded_root():
    aig = build_random_aig(1, num_ands=120, locality=8)
    plan = kernels.balance_collapse(aig, ParallelMachine())
    stranded = _drop_cluster(plan, plan.num_roots - 1)
    with pytest.raises(KeyError) as kernel_error:
        kernels._levelize_collapsed(aig, stranded)
    with pytest.raises(KeyError) as oracle_error:
        reference_levelize_collapsed(aig, stranded)
    assert kernel_error.value.args == oracle_error.value.args


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds)
def test_fanout_degrees_matches_fanout_lists(seed):
    aig = build_random_aig(seed)
    degrees = context_for(aig).fanout_degrees()
    lists = fanout_lists(aig)
    assert degrees.tolist() == [len(entry) for entry in lists]


def _csr(cones, ordered: bool) -> tuple[list[int], list[int]]:
    """Flat members plus per-item counts of a list of cone sets.

    ``ordered`` sorts each cone (the cut columns' layout); otherwise
    the members keep the set's iteration order.
    """
    members: list[int] = []
    for cone in cones:
        members.extend(sorted(cone) if ordered else cone)
    return members, [len(cone) for cone in cones]


def _batched_sizes(aig, nref, roots, cones) -> list[int]:
    """Batched sizes; both CSR member orders must agree."""
    results = [
        kernels.rewrite_batched_mffc(
            aig, nref, roots, *_csr(cones, ordered)
        ).tolist()
        for ordered in (False, True)
    ]
    assert results[0] == results[1]
    return results[0]


@given(seed=aig_seeds)
@settings(max_examples=10, deadline=None)
def test_rewrite_batched_mffc_matches_mffc_size(seed):
    # Full MFFC cones: batched sizing must reproduce the scalar
    # reference-count walk for every root at once.  ``deref_cone``
    # over the live-AND set walks the whole MFFC.
    aig = build_random_aig(seed, num_ands=80)
    nref = fanout_counts(aig)
    roots = list(aig.and_vars())
    cones = []
    for root in roots:
        cones.append(deref_cone(aig, root, set(roots), nref))
        ref_cone_back(aig, cones[-1], nref)
    expected = [len(cone) for cone in cones]
    assert _batched_sizes(aig, nref, roots, cones) == expected


def test_rewrite_batched_mffc_partial_cones():
    # Cones smaller than the MFFC clamp the deletable set: the scalar
    # walk only recurses into cone members.
    aig = build_random_aig(17, num_ands=60)
    nref = fanout_counts(aig)
    fan0 = aig._fanin0
    fan1 = aig._fanin1

    def scalar_size(root, cone):
        deleted: set[int] = set()
        dec: dict[int, int] = {}
        stack = [root]
        while stack:
            var = stack.pop()
            if var in deleted:
                continue
            deleted.add(var)
            for fvar in (fan0[var] >> 1, fan1[var] >> 1):
                count = dec.get(fvar, 0) + 1
                dec[fvar] = count
                if nref[fvar] == count and fvar in cone:
                    stack.append(fvar)
        return len(deleted)

    roots = []
    cones = []
    for root in aig.and_vars():
        cone = {root}
        for fvar in (fan0[root] >> 1, fan1[root] >> 1):
            if aig.is_and(fvar):
                cone.add(fvar)
        roots.append(root)
        cones.append(frozenset(cone))
    assert _batched_sizes(aig, nref, roots, cones) == [
        scalar_size(root, cone) for root, cone in zip(roots, cones)
    ]


def test_rewrite_batched_mffc_empty_and_singletons():
    aig = build_random_aig(1, num_ands=20)
    nref = fanout_counts(aig)
    sizes = kernels.rewrite_batched_mffc(aig, nref, [], [], [])
    assert sizes.tolist() == []
    # All-singleton batches skip the fixpoint entirely: size is 1.
    roots = list(aig.and_vars())[:5]
    sizes = kernels.rewrite_batched_mffc(
        aig, nref, roots, roots, [1] * len(roots)
    )
    assert sizes.tolist() == [1] * len(roots)


def test_refactor_survivor_keys_matches_facade_walk():
    aig = build_random_aig(23, num_ands=90)
    live = list(aig.and_vars())
    for replaced in (set(live[::7]), set()):
        assert kernels.refactor_survivor_keys(
            aig, replaced
        ) == reference_survivor_keys(aig, replaced)


@given(seed=aig_seeds)
@settings(max_examples=10, deadline=None)
def test_refactor_deleted_sets_match_deref_cone(seed):
    # Plain reconvergence cuts overlap and cross fanout boundaries,
    # exactly the cones of the conflict-breaking pass.
    aig = build_random_aig(seed, num_ands=80)
    nref = context_for(aig).fanout_counts_array()
    roots = list(aig.and_vars())
    cones = [reconv_cut(aig, root, 8).cone for root in roots]
    expected = reference_deleted_sets(aig, nref, roots, cones)
    assert kernels.refactor_deleted_sets(aig, nref, roots, cones) == (
        expected
    )
    # Many small sweeps (one item alone when its cone exceeds the
    # batch) give the same sets as one.
    default = kernels._SWEEP_MEMBERS
    kernels._SWEEP_MEMBERS = 7
    try:
        batched = kernels.refactor_deleted_sets(aig, nref, roots, cones)
    finally:
        kernels._SWEEP_MEMBERS = default
    assert batched == expected
    assert kernels.refactor_deleted_sets(aig, nref, [], []) == []
    singles = [{root} for root in roots]
    assert kernels.refactor_deleted_sets(aig, nref, roots, singles) == (
        singles
    )


@given(seed=aig_seeds)
@settings(max_examples=10, deadline=None)
def test_ffc_cutter_matches_fanout_list_walk(seed):
    aig = build_random_aig(seed, num_ands=80)
    for limit in (4, 12, aig.num_vars + 2):
        cut = common._ffc_cutter(aig, limit)
        reference = reference_ffc_cutter(aig, limit)
        for root in aig.and_vars():
            got, want = cut(root), reference(root)
            assert (got.cone, got.leaves, got.work) == (
                want.cone, want.leaves, want.work
            )
