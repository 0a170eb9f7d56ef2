"""Unit tests for Verilog and DOT export."""

from repro.aig.aig import Aig
from repro.aig.export import to_dot, to_verilog
from tests.conftest import build_random_aig


def xor_named():
    aig = Aig("xor2")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    both = aig.add_and(a, b)
    neither = aig.add_and(a ^ 1, b ^ 1)
    aig.add_po(aig.add_and(both ^ 1, neither ^ 1), "y")
    return aig


def test_verilog_structure():
    text = to_verilog(xor_named())
    assert text.startswith("module xor2(")
    assert "input wire a, b," in text
    assert "output wire y" in text
    assert text.count("assign") == 4  # three ANDs + the PO
    assert "&" in text
    assert text.rstrip().endswith("endmodule")


def test_verilog_complemented_po():
    aig = Aig("inv")
    a = aig.add_pi("x")
    aig.add_po(a ^ 1, "nx")
    text = to_verilog(aig)
    assert "assign nx = ~x;" in text


def test_verilog_constant_po():
    aig = Aig("consts")
    aig.add_pi("x")
    aig.add_po(0, "lo")
    aig.add_po(1, "hi")
    text = to_verilog(aig)
    assert "assign lo = 1'b0;" in text
    assert "assign hi = 1'b1;" in text


def test_verilog_sanitizes_names():
    aig = Aig("my design!")
    a = aig.add_pi("in[0]")
    aig.add_po(a, "3out")
    text = to_verilog(aig)
    assert "module my_design_(" in text
    assert "in_0_" in text
    assert "n_3out" in text


def test_verilog_random_aig_has_all_nodes():
    aig = build_random_aig(5)
    compacted = aig.compact()
    text = to_verilog(aig)
    assert text.count(" & ") == compacted.num_ands


def test_dot_structure():
    text = to_dot(xor_named())
    assert text.startswith("digraph xor2 {")
    assert 'shape=box' in text      # PIs
    assert 'shape=circle' in text   # AND nodes
    assert 'shape=invhouse' in text # POs
    assert "style=dashed" in text   # complemented edges
    assert text.rstrip().endswith("}")


def test_dot_edge_count():
    aig = build_random_aig(2)
    compacted = aig.compact()
    text = to_dot(aig)
    arrows = text.count("->")
    assert arrows == 2 * compacted.num_ands + compacted.num_pos
