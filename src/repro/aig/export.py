"""Exporting AIGs to structural Verilog and Graphviz DOT.

Interchange helpers a downstream user expects from an AIG package:
``to_verilog`` emits a gate-level module (assign-based AND/NOT netlist)
suitable for simulation or synthesis cross-checks, ``to_dot`` a
Graphviz digraph with dashed complemented edges for inspection.
"""

from __future__ import annotations

from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_var


def _sanitize(name: str) -> str:
    out = []
    for char in name:
        out.append(char if char.isalnum() or char == "_" else "_")
    text = "".join(out)
    if not text or text[0].isdigit():
        text = "n_" + text
    return text


def to_verilog(aig: Aig, module_name: str | None = None) -> str:
    """Render the AIG as a structural Verilog module."""
    compacted = aig.compact()
    module = _sanitize(module_name or compacted.name or "aig")
    pi_names = [
        _sanitize(compacted.pi_name(index) or f"pi{index}")
        for index in range(compacted.num_pis)
    ]
    po_names = [
        _sanitize(compacted.po_name(index) or f"po{index}")
        for index in range(compacted.num_pos)
    ]
    # Guard against duplicate symbol-table names.
    seen: set[str] = set()
    for names in (pi_names, po_names):
        for index, name in enumerate(names):
            while name in seen:
                name += "_"
            names[index] = name
            seen.add(name)

    wire_of: dict[int, str] = {0: "1'b0"}
    for var, name in zip(compacted.pis, pi_names):
        wire_of[var] = name

    def literal(lit: int) -> str:
        base = wire_of[lit_var(lit)]
        if not lit_compl(lit):
            return base
        if base == "1'b0":
            return "1'b1"
        return f"~{base}"

    lines = [
        f"module {module}(",
        "  input wire " + ", ".join(pi_names) + ","
        if pi_names
        else "",
        "  output wire " + ", ".join(po_names),
        ");",
    ]
    assigns = []
    for var in compacted.and_vars():
        name = f"n{var}"
        wire_of[var] = name
        f0, f1 = compacted.fanins(var)
        assigns.append(
            f"  assign {name} = {literal(f0)} & {literal(f1)};"
        )
    if assigns:
        wires = ", ".join(
            f"n{var}" for var in compacted.and_vars()
        )
        lines.append(f"  wire {wires};")
    lines.extend(assigns)
    for index, po_lit in enumerate(compacted.pos):
        lines.append(f"  assign {po_names[index]} = {literal(po_lit)};")
    lines.append("endmodule")
    return "\n".join(line for line in lines if line) + "\n"


def to_dot(aig: Aig, name: str | None = None) -> str:
    """Render the AIG as a Graphviz digraph.

    Complemented edges are dashed; PIs are boxes, POs inverted houses,
    AND nodes circles — the conventional AIG drawing style.
    """
    compacted = aig.compact()
    graph = _sanitize(name or compacted.name or "aig")
    lines = [f"digraph {graph} {{", "  rankdir=BT;"]
    lines.append('  const0 [label="0", shape=square];')
    for index, var in enumerate(compacted.pis):
        label = compacted.pi_name(index) or f"pi{index}"
        lines.append(f'  v{var} [label="{label}", shape=box];')
    for var in compacted.and_vars():
        lines.append(f'  v{var} [label="{var}", shape=circle];')

    def edge(target: str, lit: int) -> str:
        source = "const0" if lit_var(lit) == 0 else f"v{lit_var(lit)}"
        style = " [style=dashed]" if lit_compl(lit) else ""
        return f"  {source} -> {target}{style};"

    for var in compacted.and_vars():
        f0, f1 = compacted.fanins(var)
        lines.append(edge(f"v{var}", f0))
        lines.append(edge(f"v{var}", f1))
    for index, po_lit in enumerate(compacted.pos):
        label = compacted.po_name(index) or f"po{index}"
        lines.append(
            f'  o{index} [label="{label}", shape=invhouse];'
        )
        lines.append(edge(f"o{index}", po_lit))
    lines.append("}")
    return "\n".join(lines) + "\n"
