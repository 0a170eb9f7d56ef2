"""Unit tests for the command-line interface."""

import pytest

from repro.aig.io_aiger import read_aag, write_aag
from repro.cli import main
from tests.conftest import assert_equivalent, build_random_aig


@pytest.fixture
def aig_file(tmp_path):
    aig = build_random_aig(3, num_ands=120)
    path = tmp_path / "input.aag"
    write_aag(aig, path)
    return aig, path


def test_no_args_prints_help():
    assert main([]) == 2


def test_stats(aig_file, capsys):
    aig, path = aig_file
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"ands={aig.num_ands}" in out


def test_gen_writes_benchmark(tmp_path, capsys):
    out_path = tmp_path / "gen.aag"
    assert main(["gen", "vga_lcd", "-o", str(out_path)]) == 0
    generated = read_aag(out_path)
    assert generated.num_ands > 100


def test_opt_runs_and_verifies(aig_file, tmp_path, capsys):
    aig, path = aig_file
    out_path = tmp_path / "out.aag"
    code = main([
        "opt", str(path), "-c", "b; rw", "--engine", "gpu",
        "--verify", "-o", str(out_path),
    ])
    assert code == 0
    optimized = read_aag(out_path)
    assert_equivalent(aig, optimized)
    assert "equivalence: equivalent" in capsys.readouterr().out


def test_opt_seq_engine(aig_file, capsys):
    aig, path = aig_file
    assert main(["opt", str(path), "-c", "b", "--engine", "seq"]) == 0
    assert "modeled" in capsys.readouterr().out


def test_cec_equal_and_unequal(aig_file, tmp_path, capsys):
    aig, path = aig_file
    twin = tmp_path / "twin.aag"
    write_aag(aig.clone(), twin)
    assert main(["cec", str(path), str(twin)]) == 0
    mutated = aig.clone()
    mutated.set_po(0, mutated.pos[0] ^ 1)
    other = tmp_path / "other.aag"
    write_aag(mutated, other)
    assert main(["cec", str(path), str(other)]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_export_verilog_and_dot(aig_file, tmp_path, capsys):
    aig, path = aig_file
    verilog = tmp_path / "out.v"
    dot = tmp_path / "out.dot"
    assert main(["export", str(path), "-o", str(verilog)]) == 0
    assert main(
        ["export", str(path), "--format", "dot", "-o", str(dot)]
    ) == 0
    assert verilog.read_text().startswith("module")
    assert dot.read_text().startswith("digraph")


def test_removed_map_subcommand_is_a_usage_error(aig_file, capsys):
    aig, path = aig_file
    with pytest.raises(SystemExit) as exit_info:
        main(["map", str(path), "-k", "4"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro-aig" in err
    assert "invalid choice: 'map'" in err


def test_verify_subcommand_clean(aig_file, capsys):
    aig, path = aig_file
    assert main(["verify", str(path), "-c", "b; rw"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer conflicts: 0" in out
    assert "invariants: ok" in out
    assert "equivalence: equivalent" in out
    assert "verdict: CLEAN" in out


def test_verify_subcommand_has_no_backend_flag(aig_file, capsys):
    aig, path = aig_file
    with pytest.raises(SystemExit):
        main(["verify", str(path), "-c", "b", "--backend", "python"])
    assert "--backend" in capsys.readouterr().err


def test_fuzz_subcommand_small_budget(capsys):
    code = main([
        "fuzz", "--seed", "3", "--budget", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cases run          2" in out
    assert "verdict: CLEAN" in out


def test_fuzz_subcommand_verbose_progress(capsys):
    code = main([
        "fuzz", "--seed", "3", "--budget", "1", "-v",
    ])
    assert code == 0
    assert "[1/1]" in capsys.readouterr().out


def test_table1_subcommand(capsys):
    assert main(["table1", "--names", "vga_lcd"]) == 0
    assert "Norm. seq. time" in capsys.readouterr().out


def test_fig8_subcommand(capsys):
    assert main(["fig8", "--names", "vga_lcd"]) == 0
    assert "dedup" in capsys.readouterr().out
