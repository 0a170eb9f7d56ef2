"""Fast-path parity: the vector path and its scalar reference agree.

One site keeps a vectorized path next to a scalar reference, selected
only by a module-level size gate: the batched hash-table operations
(docs/ARCHITECTURE.md, "Size gates").  This file runs whole scripts
with the gate forced to ``0`` (vector path everywhere) and to
``math.inf`` (scalar reference everywhere) through
:func:`repro.verify.forced_gates`, and requires
identical serialized AIGs, identical ``hashtable.*`` counters and
identical modeled times.  Only wall-clock may differ.
"""

from __future__ import annotations

import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.io_aiger import dump_aag, read_aig_binary, write_aig_binary
from repro.benchgen.suite import load_benchmark
from repro.engine import run_script
from repro.parallel import backend
from repro.parallel.machine import ParallelMachine
from repro.verify import GATES, forced_gates
from tests.conftest import build_random_aig

aig_seeds = st.integers(min_value=0, max_value=100_000)
aig_sizes = st.integers(min_value=5, max_value=150)


def _run_gated(gates, aig, script: str):
    """Run ``script`` with every gate at ``gates``; the parity tuple."""
    machine = ParallelMachine()
    with forced_gates(gates):
        observe.enable()
        try:
            result = run_script(aig, script, engine="gpu", machine=machine)
        finally:
            _, registry = observe.disable()
    counters = {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("hashtable")
    }
    return dump_aag(result.aig), counters, machine.total_time()


def _assert_parity(make_aig, script: str) -> None:
    aag_v, counters_v, modeled_v = _run_gated(0, make_aig(), script)
    aag_s, counters_s, modeled_s = _run_gated(math.inf, make_aig(), script)
    assert aag_v == aag_s
    assert modeled_v == modeled_s
    assert counters_v == counters_s


# ----------------------------------------------------------------------
# Named-suite parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "script"),
    [
        ("div", "b; rw; rf; b"),
        ("vga_lcd", "resyn2"),
    ],
)
def test_suite_parity(name, script):
    _assert_parity(lambda: load_benchmark(name, 0), script)


# ----------------------------------------------------------------------
# Randomized resyn2 parity (hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_random_resyn2_parity(seed, size):
    _assert_parity(
        lambda: build_random_aig(seed, num_ands=size), "resyn2"
    )


# ----------------------------------------------------------------------
# The gate helper and the profile helper
# ----------------------------------------------------------------------


def test_forced_gates_sets_and_restores_every_gate():
    modules = [
        (importlib.import_module(module), attr) for module, attr in GATES
    ]
    defaults = [getattr(module, attr) for module, attr in modules]
    with forced_gates(0):
        assert all(getattr(module, attr) == 0 for module, attr in modules)
    assert [getattr(module, attr) for module, attr in modules] == defaults
    with pytest.raises(RuntimeError):
        with forced_gates(math.inf):
            raise RuntimeError("restore on error")
    assert [getattr(module, attr) for module, attr in modules] == defaults
    with forced_gates(None):
        assert [
            getattr(module, attr) for module, attr in modules
        ] == defaults


def test_forced_gates_switch_every_pass_path(tmp_path):
    """The gate at 0 reaches the vector path on a small graph; at inf
    it does not.  The column kernels have no gate: they run either way.
    The ``path.*`` counters name the path each site took, and the
    binary reader's path depends on the file alone."""
    bulk_file = tmp_path / "bulk.aig"
    write_aig_binary(build_random_aig(3, num_ands=120), bulk_file)
    # x & x: the AND folds, so the reader replays.
    replay_file = tmp_path / "replay.aig"
    replay_file.write_bytes(b"aig 2 1 0 1 1\n4\n\x02\x00")

    def path_counters(gates):
        with forced_gates(gates):
            observe.enable()
            try:
                read_aig_binary(replay_file)
                result = run_script(
                    read_aig_binary(bulk_file), "b; rw; rf", engine="gpu"
                )
            finally:
                _, registry = observe.disable()
        counters = {
            key: value
            for key, value in registry.snapshot()["counters"].items()
            if key.startswith(("kernels.", "commit.bulk_nodes", "path."))
        }
        return counters, dump_aag(result.aig)

    kernel_keys = (
        "kernels.b_singleton_clusters",
        "kernels.rf_degree_cones",
        "kernels.rw_sized_items",
    )
    vector, vector_aag = path_counters(0)
    scalar, scalar_aag = path_counters(math.inf)
    # Below the gate, misses also land through the batch constructor
    # (the fused small-batch loop), so ``commit.bulk_nodes`` shows up
    # on both sides; the ``path.hashtable.*`` counters name the side
    # taken.
    assert vector.get("commit.bulk_nodes", 0) > 0
    assert vector_aag == scalar_aag
    assert not any(
        key.startswith("path.hashtable.") and key.endswith(".scalar")
        for key in vector
    )
    assert not any(
        key.startswith("path.hashtable.") and key.endswith(".vector")
        for key in scalar
    )
    for key in kernel_keys:
        assert vector.get(key, 0) > 0, key
        assert scalar.get(key) == vector[key], key
    for counters in (vector, scalar):
        assert counters["path.aiger_read.bulk"] == 1
        assert counters["path.aiger_read.replay"] == 1
    vector_sites = {
        key.removesuffix(".vector")
        for key in vector
        if key.startswith("path.hashtable.")
    }
    scalar_sites = {
        key.removesuffix(".scalar")
        for key in scalar
        if key.startswith("path.hashtable.")
    }
    assert vector_sites and vector_sites == scalar_sites
    assert all(f"{site}.vector" in vector for site in vector_sites)
    assert all(f"{site}.scalar" in scalar for site in scalar_sites)


def test_const_profile_and_launch_batch_equivalence():
    """launch_batch builds the same KernelRecord from array and list."""
    from_array = ParallelMachine()
    from_array.launch_batch("k", backend.const_profile(3, 17))
    from_list = ParallelMachine()
    from_list.launch_batch("k", [3] * 17)
    assert from_array.records[0] == from_list.records[0]
    assert from_array.total_time() == from_list.total_time()
