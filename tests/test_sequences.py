"""Unit tests for the sequence (script) runner."""

import pytest

from repro.engine import NAMED_SEQUENCES, parse_script, run_script
from repro.experiments.tables import gpu_refactor_repeated
from repro.parallel.machine import ParallelMachine, SeqMeter
from tests.conftest import assert_equivalent, build_random_aig


def test_parse_explicit_script():
    assert parse_script("b; rw ;rf") == ["b", "rw", "rf"]


def test_parse_named_sequences():
    assert parse_script("resyn2") == [
        "b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b",
    ]
    assert parse_script("rf_resyn") == ["b", "rf", "rfz", "b", "rfz", "b"]
    assert "resyn" in NAMED_SEQUENCES


def test_parse_rejects_unknown_command():
    with pytest.raises(ValueError):
        parse_script("b; frobnicate")


def test_run_rejects_unknown_engine():
    with pytest.raises(ValueError):
        run_script(build_random_aig(0), "b", engine="tpu")


@pytest.mark.parametrize("engine", ["seq", "gpu"])
def test_short_script_equivalence(engine):
    aig = build_random_aig(10, num_ands=150)
    result = run_script(aig, "b; rw; rf", engine=engine, max_cut_size=8)
    assert_equivalent(aig, result.aig)
    assert result.nodes <= aig.num_ands
    assert len(result.steps) >= 3
    assert result.modeled_time() > 0


def test_seq_engine_uses_meter():
    aig = build_random_aig(1, num_ands=100)
    meter = SeqMeter()
    result = run_script(aig, "b; rw", engine="seq", meter=meter)
    assert result.meter is meter
    assert meter.work > 0


def test_gpu_engine_tags_commands():
    aig = build_random_aig(1, num_ands=100)
    machine = ParallelMachine()
    run_script(aig, "b; rf", engine="gpu", machine=machine, max_cut_size=8)
    breakdown = machine.breakdown_by_tag()
    assert "b" in breakdown
    assert "rf" in breakdown
    assert "dedup" in breakdown  # cleanup retags itself


def test_gpu_rwz_runs_two_passes():
    aig = build_random_aig(4, num_ands=150)
    result = run_script(aig, "rwz", engine="gpu")
    assert len(result.steps) == 2
    assert all(command == "rwz" for command, _ in result.steps)


def test_gpu_rf_and_rfz_are_identical_commands():
    aig = build_random_aig(4, num_ands=150)
    rf = run_script(aig, "rf", engine="gpu", max_cut_size=8)
    rfz = run_script(aig, "rfz", engine="gpu", max_cut_size=8)
    assert rf.nodes == rfz.nodes
    assert len(rf.steps) == len(rfz.steps) == 1


def test_gpu_refactor_repeated():
    aig = build_random_aig(6, num_ands=150)
    result = gpu_refactor_repeated(aig, passes=2, max_cut_size=8)
    assert len(result.steps) == 2
    assert result.nodes <= aig.num_ands
    assert_equivalent(aig, result.aig)


def test_modeled_time_requires_source():
    from repro.engine import SequenceResult

    orphan = SequenceResult(build_random_aig(0))
    with pytest.raises(ValueError):
        orphan.modeled_time()
