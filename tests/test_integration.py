"""Integration tests: full sequences on structured benchmark circuits.

These mirror the paper's end-to-end claims at test scale: the GPU
``resyn2``/``rf_resyn`` pipelines run on real arithmetic/control
circuits, improve (or preserve) area and delay, pass equivalence
checking, and produce a coherent machine trace.
"""

import pytest

from repro.aig.io_aiger import parse_aag, dump_aag
from repro.aig.validate import check_aig
from repro.benchgen.arith import divider, multiplier, voter
from repro.benchgen.control import random_control
from repro.benchgen.enlarge import enlarge
from repro.engine import run_script
from repro.parallel.machine import MachineConfig, ParallelMachine, SeqMeter
from tests.conftest import assert_equivalent


@pytest.mark.parametrize(
    "make",
    [
        lambda: divider(8),
        lambda: voter(64),
        lambda: random_control(32, 4, 120, seed=3),
    ],
    ids=["divider", "voter", "control"],
)
def test_gpu_rf_resyn_end_to_end(make):
    aig = make()
    machine = ParallelMachine()
    result = run_script(
        aig, "rf_resyn", engine="gpu", max_cut_size=8, machine=machine
    )
    check_aig(result.aig)
    assert result.nodes <= aig.num_ands
    # Area-driven refactoring may deepen the AIG somewhat even after
    # the final balance (the paper's own sqrt row: 5058 -> 5365).
    assert result.aig.stats()["levels"] <= int(aig.stats()["levels"] * 1.2) + 2
    assert_equivalent(aig, result.aig)
    breakdown = machine.breakdown_by_tag()
    assert {"b", "rf", "dedup"} <= set(breakdown)


def test_seq_vs_gpu_resyn2_quality_parity():
    """Paper's headline: GPU resyn2 quality comparable to ABC's."""
    aig = multiplier(10)
    seq = run_script(aig, "resyn2", engine="seq", max_cut_size=8)
    gpu = run_script(aig, "resyn2", engine="gpu", max_cut_size=8)
    assert_equivalent(aig, seq.aig)
    assert_equivalent(aig, gpu.aig)
    assert gpu.nodes <= int(seq.nodes * 1.10) + 2
    gpu_levels = gpu.aig.stats()["levels"]
    seq_levels = seq.aig.stats()["levels"]
    assert gpu_levels <= seq_levels + 2


def test_gpu_sequence_is_faster_in_model_at_scale():
    """Above the crossover, the modeled GPU time beats the baseline."""
    aig = enlarge(random_control(32, 4, 120, seed=5), 2)
    meter = SeqMeter()
    machine = ParallelMachine()
    seq = run_script(aig, "rf_resyn", engine="seq", meter=meter,
                     max_cut_size=8)
    gpu = run_script(aig, "rf_resyn", engine="gpu", machine=machine,
                     max_cut_size=8)
    assert machine.total_time() < meter.time()
    assert gpu.nodes <= int(seq.nodes * 1.15) + 2


def test_aiger_roundtrip_of_optimized_result():
    aig = divider(8)
    result = run_script(aig, "b; rw; rf", engine="gpu", max_cut_size=8)
    text = dump_aag(result.aig)
    loaded = parse_aag(text)
    assert_equivalent(result.aig, loaded)
    assert_equivalent(aig, loaded)


def test_determinism_of_gpu_pipeline():
    """The simulation is exactly reproducible (cf. paper's <0.001%
    CUDA scheduling variation)."""
    aig = divider(8)
    first = run_script(aig, "rf_resyn", engine="gpu", max_cut_size=8)
    second = run_script(aig, "rf_resyn", engine="gpu", max_cut_size=8)
    assert first.nodes == second.nodes
    assert first.aig.stats() == second.aig.stats()


def test_custom_machine_config_scales_times():
    aig = voter(64)
    slow = ParallelMachine(config=MachineConfig(t_launch=1.0))
    fast = ParallelMachine(config=MachineConfig(t_launch=1e-9))
    run_script(aig, "b", engine="gpu", machine=slow)
    run_script(aig, "b", engine="gpu", machine=fast)
    assert slow.total_time() > fast.total_time()
