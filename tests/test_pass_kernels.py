"""Column-native pass kernels: kernel-vs-scalar bit-identity.

The kernels in :mod:`repro.algorithms.kernels` are wall-clock-only
rewrites of the balance/refactor/rewrite inner loops; the scalar pass
code is their semantic reference.  This file forces the kernels on for
small graphs (``KERNEL_CUTOFF = 0``) and asserts the two paths agree
on everything observable — serialized AIGs, modeled times, machine
records and every counter outside the kernel-path-only ``kernels.*``
namespace — plus the fallback gates and direct unit parity for each
kernel primitive.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.io_aiger import dump_aag
from repro.aig.mffc import mffc_size
from repro.aig.traversal import fanout_counts, fanout_lists
from repro.algorithms import kernels
from repro.engine import run_script
from repro.engine.context import context_for
from repro.parallel.machine import ParallelMachine
from repro.verify import sanitizer
from repro.verify.sanitizer import Sanitizer
from tests.conftest import build_random_aig

aig_seeds = st.integers(min_value=0, max_value=50_000)
aig_sizes = st.integers(min_value=10, max_value=150)

SCRIPTS = ("b", "rf", "rw")


def _run(aig, script: str, cutoff: int):
    """Run ``script`` with the kernel gate at ``cutoff``; parity tuple."""
    original = kernels.KERNEL_CUTOFF
    kernels.KERNEL_CUTOFF = cutoff
    observe.enable()
    machine = ParallelMachine()
    try:
        result = run_script(aig, script, engine="gpu", machine=machine)
    finally:
        kernels.KERNEL_CUTOFF = original
        _, registry = observe.disable()
    # ``kernels.*`` and the commit layer's bulk/serial throughput split
    # are wall-clock bookkeeping; both legitimately differ between the
    # column-native and scalar pass paths.
    counters = {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if not key.startswith(("kernels.", "commit."))
    }
    records = [
        (type(record).__name__, vars(record))
        for record in machine.records
    ]
    return dump_aag(result.aig), counters, records, machine.total_time()


def _assert_kernel_parity(make_aig, script: str) -> None:
    on = _run(make_aig(), script, cutoff=0)
    off = _run(make_aig(), script, cutoff=1 << 60)
    assert on[0] == off[0], "serialized AIGs differ"
    assert on[1] == off[1], "counters differ"
    assert on[2] == off[2], "machine records differ"
    assert on[3] == off[3], "modeled times differ"


# ----------------------------------------------------------------------
# Kernel-vs-scalar script parity (hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
@pytest.mark.parametrize("script", SCRIPTS)
def test_kernel_parity_random(script, seed, size):
    _assert_kernel_parity(
        lambda: build_random_aig(seed, num_ands=size), script
    )


@pytest.mark.parametrize("script", SCRIPTS + ("resyn2",))
def test_kernel_parity_deep(script):
    # Deeper/narrower shape than the default random graphs.
    _assert_kernel_parity(
        lambda: build_random_aig(11, num_pis=4, num_ands=200, locality=6),
        script,
    )


# ----------------------------------------------------------------------
# Fallback gates
# ----------------------------------------------------------------------


def test_cutoff_gate_keeps_small_graphs_scalar():
    aig = build_random_aig(3, num_ands=64)
    assert aig.num_ands < kernels.KERNEL_CUTOFF
    assert not kernels.enabled_for(aig)


def test_cutoff_gate_boundary(monkeypatch):
    aig = build_random_aig(3, num_ands=64)
    monkeypatch.setattr(kernels, "KERNEL_CUTOFF", 0)
    assert kernels.enabled_for(aig)
    monkeypatch.setattr(kernels, "KERNEL_CUTOFF", aig.num_ands)
    assert kernels.enabled_for(aig)
    monkeypatch.setattr(kernels, "KERNEL_CUTOFF", aig.num_ands + 1)
    assert not kernels.enabled_for(aig)


def test_sanitizer_runs_scalar_path(monkeypatch):
    # Under the sanitizer the kernels must stay off even at cutoff 0;
    # the pass still works and matches the kernel result.
    monkeypatch.setattr(kernels, "KERNEL_CUTOFF", 0)
    kernel_dump = _run(build_random_aig(5), "b", cutoff=0)[0]
    aig = build_random_aig(5)
    sanitizer.set_sanitizer(Sanitizer(on_conflict="record"))
    try:
        assert not kernels.enabled_for(aig)
        result = run_script(aig, "b", engine="gpu")
    finally:
        sanitizer.set_sanitizer(None)
    assert dump_aag(result.aig) == kernel_dump


# ----------------------------------------------------------------------
# Kernel primitives against their scalar references
# ----------------------------------------------------------------------


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
    # Full MFFC cones: batched sizing must reproduce the reference
    # reference-count walk for every root at once.
    from repro.aig.mffc import mffc_nodes

    aig = build_random_aig(seed, num_ands=80)
    nref = fanout_counts(aig)
    roots = list(aig.and_vars())
    cones = [mffc_nodes(aig, root, nref) for root in roots]
    expected = [mffc_size(aig, root, nref) for root in roots]
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
    replaced = set(live[::7])
    keys = kernels.refactor_survivor_keys(aig, replaced)
    expected = {}
    for var in aig.and_vars():
        if var in replaced:
            continue
        expected[aig.fanins(var)] = var
    assert keys == expected
    # And with nothing replaced.
    assert kernels.refactor_survivor_keys(aig, set()) == {
        aig.fanins(var): var for var in aig.and_vars()
    }
