"""Tseitin encoding of AIGs into CNF: the AIG-to-CNF variable map.

Each encoded AND node ``v = a & b`` contributes the three standard
clauses ``(¬v ∨ a)``, ``(¬v ∨ b)``, ``(v ∨ ¬a ∨ ¬b)``.  The constant
node maps to a CNF variable forced false with a unit clause, so
complemented constant fanins need no special casing.
:class:`repro.cec.equivalence.FraigSweeper` encodes cones lazily
through one :class:`CnfMapping`.
"""

from __future__ import annotations

from repro.aig.literals import lit_compl, lit_var


class CnfMapping:
    """Correspondence between AIG variables and CNF variables."""

    def __init__(self) -> None:
        self.var_map: dict[int, int] = {}

    def cnf_lit(self, aig_lit: int) -> int:
        """CNF literal (DIMACS signed int) for an AIG literal."""
        cnf_var = self.var_map[lit_var(aig_lit)]
        return -cnf_var if lit_compl(aig_lit) else cnf_var
