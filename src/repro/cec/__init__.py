"""Combinational equivalence checking: simulation, CNF, SAT, sweeping,
and a ROBDD package as an independent oracle."""

from repro.cec.bdd import BddManager, bdd_equivalent, build_bdds
from repro.cec.cnf import CnfMapping
from repro.cec.equivalence import (
    CecResult,
    CecStatus,
    FraigSweeper,
    check_equivalence,
    miter,
)
from repro.cec.sat import SatResult, SatSolver
from repro.cec.simulate import (
    evaluate,
    random_patterns,
    simulate,
    simulate_all,
)

__all__ = [
    "BddManager",
    "CecResult",
    "CecStatus",
    "CnfMapping",
    "bdd_equivalent",
    "build_bdds",
    "FraigSweeper",
    "SatResult",
    "SatSolver",
    "check_equivalence",
    "evaluate",
    "miter",
    "random_patterns",
    "simulate",
    "simulate_all",
]
